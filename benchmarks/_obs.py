"""Observability helpers shared by the experiment benchmarks.

The benchmarks time whole operations with ``pytest-benchmark``; these
helpers add the *phase-level* view: run the operation once under a
:class:`repro.obs.tracer.Tracer`, aggregate per-phase span totals, and write a
``BENCH_<name>.json`` next to the benchmark files so results carry the
breakdown (not just totals) for regression comparison across PRs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Iterable, Tuple

from _smoke import SMOKE
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RingBufferSink, Span, Tracer

BENCH_DIR = Path(__file__).parent


def instrumented_run(
    fn: Callable[[Tracer, MetricsRegistry], object],
) -> Tuple[object, MetricsRegistry, Tuple[Span, ...]]:
    """Run ``fn(tracer, metrics)`` once under a fresh ring-buffer tracer."""
    registry = MetricsRegistry()
    ring = RingBufferSink()
    tracer = Tracer(ring, metrics=registry)
    result = fn(tracer, registry)
    return result, registry, ring.spans()


def phase_totals(spans: Iterable[Span], prefix: str = "") -> Dict[str, float]:
    """Total seconds per span name (optionally filtered by name prefix)."""
    totals: Dict[str, float] = {}
    for span in spans:
        if span.name.startswith(prefix):
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals


def write_bench_json(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` beside the benchmarks; return the path.

    Under ``BENCH_SMOKE=1`` the write is skipped — smoke sweeps are too
    tiny to be worth publishing as regression baselines.
    """
    path = BENCH_DIR / f"BENCH_{name}.json"
    if not SMOKE:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
