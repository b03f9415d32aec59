"""Streaming quantile estimation over log-spaced bucket histograms.

Latency telemetry needs percentiles, not means: a p99 feed→verdict
latency is the number an operator alerts on, and it has to come out of
a *streaming* estimator — the service never holds the sample set.
:func:`log_buckets` builds bucket bounds in a geometric progression with
ratio ``growth``; any quantile read off such a histogram by
:func:`bucket_quantile` (the engine behind
:meth:`repro.obs.metrics.Histogram.quantile`) carries a *guaranteed*
relative error of at most ``sqrt(growth) - 1`` (the estimate is the
geometric midpoint of the bucket holding the target rank).  The default
:data:`LATENCY_BUCKETS` use ``growth = 1.08``, i.e. ≤ 4% error over
1 µs .. 10 s — comfortably inside the 5% budget the reference tests
enforce — at a cost of ~200 integer buckets.  Histograms merge and
snapshot trivially, which is why the registry instruments use them.

:func:`latency_histogram` is the one-line wiring helper the stream
service uses: get-or-create a registry histogram with the latency
bucket layout.  The drift detector D001 treats it as a registry method,
so metric names routed through it are machine-checked against
``docs/OBSERVABILITY.md`` like any direct ``registry.inc`` call.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (metrics imports us)
    from .metrics import Histogram, MetricsRegistry

__all__ = [
    "log_buckets",
    "LATENCY_BUCKETS",
    "bucket_quantile",
    "latency_histogram",
]


def log_buckets(start: float, stop: float, growth: float = 1.08) -> Tuple[float, ...]:
    """Geometric bucket bounds from ``start`` to at least ``stop``.

    Quantiles interpolated on a histogram with these bounds have
    relative error at most ``sqrt(growth) - 1`` (see
    :func:`bucket_quantile`); the bound count is
    ``log(stop/start) / log(growth)``, so tighter accuracy costs more
    buckets linearly in ``1/log(growth)``.
    """
    if start <= 0:
        raise ValueError("start must be positive")
    if stop <= start:
        raise ValueError("stop must exceed start")
    if growth <= 1.0:
        raise ValueError("growth must exceed 1.0")
    bounds: List[float] = [start]
    while bounds[-1] < stop:
        bounds.append(bounds[-1] * growth)
    return tuple(bounds)


#: The latency bucket layout: 1 µs .. 10 s at ≤ 4% quantile error.
LATENCY_BUCKETS: Tuple[float, ...] = log_buckets(1e-6, 10.0, growth=1.08)


def bucket_quantile(
    buckets: Sequence[float],
    counts: Sequence[int],
    count: int,
    q: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> Optional[float]:
    """Estimate the ``q``-quantile of a bucketed sample.

    ``buckets`` are the ascending inclusive upper bounds and ``counts``
    the per-bucket (non-cumulative) tallies, with ``counts[-1]`` the
    +inf overflow bucket — exactly the shape
    :class:`repro.obs.metrics.Histogram` maintains.  The estimate is
    the geometric midpoint of the bucket containing the target rank,
    clamped to the observed ``minimum``/``maximum``; for log-spaced
    buckets with ratio ``g`` that pins the relative error at
    ``sqrt(g) - 1`` whatever the underlying distribution does inside
    the bucket.  Returns ``None`` for an empty sample.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count <= 0:
        return None
    # nearest-rank target: the ceil(q * count)-th smallest sample
    rank = max(1, math.ceil(q * count))
    cumulative = 0
    index = len(counts) - 1
    for i, bucket_count in enumerate(counts):
        cumulative += bucket_count
        if cumulative >= rank:
            index = i
            break
    if index >= len(buckets):
        # overflow bucket: no upper bound — the observed max is the
        # only honest estimate
        estimate = maximum if maximum is not None else buckets[-1]
    else:
        upper = buckets[index]
        lower = buckets[index - 1] if index > 0 else None
        if lower is not None and lower > 0 and upper > 0:
            estimate = math.sqrt(lower * upper)
        elif upper > 0:
            # first bucket: samples lie in (-inf, upper]; fall back to
            # the arithmetic midpoint of [min-or-zero, upper]
            floor = minimum if minimum is not None and minimum > 0 else 0.0
            estimate = (floor + upper) / 2.0
        else:
            estimate = upper
    if minimum is not None:
        estimate = max(estimate, minimum)
    if maximum is not None:
        estimate = min(estimate, maximum)
    return estimate


def latency_histogram(registry: "MetricsRegistry", name: str) -> "Histogram":
    """Get-or-create ``name`` on ``registry`` with the latency layout.

    The single wiring point for ``*.latency.*`` / duration-quantile
    instruments: every call site routes its (constant) metric name
    through here, and the drift detector D001 parses these calls like
    direct registry writes — so the name must appear in the
    ``docs/OBSERVABILITY.md`` inventory.
    """
    return registry.histogram(name, buckets=LATENCY_BUCKETS)
