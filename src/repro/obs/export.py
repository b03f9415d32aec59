"""Metric exposition: Prometheus text format and periodic JSONL snapshots.

A :class:`repro.obs.metrics.MetricsRegistry` snapshot is a nested dict
— fine for tests and one-off files, useless to a scrape-based metrics
stack.  This module renders any snapshot in the `Prometheus text
exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`__:

* counters → ``# TYPE <name> counter`` plus one sample line;
* gauges → ``# TYPE <name> gauge``;
* histograms → ``# TYPE <name> histogram`` with *cumulative*
  ``_bucket{le="..."}`` samples (the ``+Inf`` bucket included), plus
  ``_sum`` and ``_count`` — exactly what ``histogram_quantile()`` wants
  on the server side.

Dotted registry names become underscore-joined Prometheus names under a
``repro_`` namespace (``stream.latency.feed_to_verdict`` →
``repro_stream_latency_feed_to_verdict``).  :func:`parse_prometheus`
reads the format back into a comparable structure; the test suite
round-trips every instrument kind through it.

For deployments that would rather ship files than expose an endpoint,
:class:`SnapshotExporter` is a small asyncio task that appends one
timestamped registry snapshot per interval to a JSONL file (and a final
one on ``close()``), counting its work in ``obs.export.snapshots``.
The ``repro metrics`` CLI subcommand wraps both: one-shot rendering of
a snapshot file, or ``--serve`` over :mod:`http.server`.
:func:`load_jsonl` reads any of the package's JSONL files back — these
snapshots, flight-recorder post-mortems and JSONL traces.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import time
from pathlib import Path
from typing import Any, Dict, IO, List, Mapping, Optional, Union

from .metrics import MetricsRegistry

__all__ = [
    "prometheus_name",
    "to_prometheus",
    "parse_prometheus",
    "SnapshotExporter",
    "load_jsonl",
]

#: Characters legal in a Prometheus metric name body.
_NAME_OK_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: One sample line: name, optional {labels}, value.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})?\s+(\S+)$"
)

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def prometheus_name(name: str, namespace: str = "repro") -> str:
    """A dotted registry name as a Prometheus metric name.

    Dots (and any other illegal characters) collapse to underscores;
    the namespace is prefixed unless already present.
    """
    flat = _NAME_OK_RE.sub("_", name)
    if namespace and not flat.startswith(namespace + "_"):
        flat = f"{namespace}_{flat}"
    return flat


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _format_bound(bound: str) -> str:
    """A histogram bucket label as Prometheus spells it (``+Inf`` kept)."""
    if bound in ("+inf", "+Inf", "inf"):
        return "+Inf"
    return bound


def to_prometheus(
    snapshot: Mapping[str, Any], namespace: str = "repro"
) -> str:
    """Render a registry snapshot dict in the text exposition format.

    ``snapshot`` is the shape :meth:`MetricsRegistry.snapshot` produces
    (also accepted: the same structure parsed back from a JSON file).
    Output is deterministic: families sorted by name, buckets in bound
    order, one trailing newline.
    """
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        flat = prometheus_name(name, namespace)
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_format_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        flat = prometheus_name(name, namespace)
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_format_value(value)}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        flat = prometheus_name(name, namespace)
        lines.append(f"# TYPE {flat} histogram")
        cumulative = 0
        for bound, bucket_count in hist.get("buckets", {}).items():
            cumulative += bucket_count
            lines.append(
                f'{flat}_bucket{{le="{_format_bound(bound)}"}} {cumulative}'
            )
        lines.append(f"{flat}_sum {_format_value(hist.get('sum', 0.0))}")
        lines.append(f"{flat}_count {hist.get('count', 0)}")
    return "\n".join(lines) + "\n"


def _parse_number(token: str) -> float:
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    return float(token)


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse exposition text back into ``{metric: {...}}``.

    Counters and gauges map to ``{"type": ..., "value": ...}``;
    histograms to ``{"type": "histogram", "buckets": {le: cumulative},
    "sum": ..., "count": ...}``.  Metric families are keyed by their
    flat Prometheus name (namespacing is not undone — renders and
    parses compose, they do not invert the name mangling).
    """
    families: Dict[str, Dict[str, Any]] = {}
    types: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            parts = rest.split()
            if len(parts) == 2:
                types[parts[0]] = parts[1]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {raw!r}")
        name, label_text, value_token = match.groups()
        value = _parse_number(value_token)
        base, suffix = name, ""
        for candidate in ("_bucket", "_sum", "_count"):
            stem = name[: -len(candidate)]
            if name.endswith(candidate) and types.get(stem) == "histogram":
                base, suffix = stem, candidate
                break
        kind = types.get(base, "untyped")
        family = families.setdefault(base, {"type": kind})
        if kind == "histogram":
            family.setdefault("buckets", {})
            if suffix == "_bucket":
                labels = dict(_LABEL_RE.findall(label_text or ""))
                family["buckets"][labels.get("le", "+Inf")] = value
            elif suffix == "_sum":
                family["sum"] = value
            elif suffix == "_count":
                family["count"] = value
            else:
                raise ValueError(f"stray histogram sample: {raw!r}")
        else:
            family["value"] = value
    return families


def load_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a JSONL file back into its records, one per non-blank line:
    :class:`SnapshotExporter` snapshots, flight-recorder post-mortems
    (:mod:`repro.obs.flight`) or spans from a
    :class:`repro.obs.tracer.JSONLFileSink`."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class SnapshotExporter:
    """Periodically append registry snapshots to a JSONL file (asyncio).

    Each record is one JSON line ``{"time": <epoch seconds>,
    "sequence": <n>, "snapshot": {...}}``.  ``start()`` spawns the
    writer task on the running loop; ``close()`` cancels it, writes one
    final snapshot, flushes, and re-raises any error the writer task
    captured (a failed write stops the exporter rather than spinning).
    Every written snapshot increments ``obs.export.snapshots`` *before*
    the snapshot is taken, so the series observes itself.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        destination: Union[str, Path, IO[str]],
        interval: float = 5.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.registry = registry
        self.interval = interval
        if hasattr(destination, "write"):
            self._file: IO[str] = destination  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(destination, "w", encoding="utf-8")
            self._owns_file = True
        self._task: Optional["asyncio.Task[None]"] = None
        self._sequence = 0
        self.error: Optional[BaseException] = None

    def write_snapshot(self) -> None:
        """Append one timestamped snapshot line (synchronous)."""
        self.registry.inc("obs.export.snapshots")
        record = {
            "time": time.time(),
            "sequence": self._sequence,
            "snapshot": self.registry.snapshot(),
        }
        self._sequence += 1
        self._file.write(json.dumps(record) + "\n")

    async def start(self) -> None:
        """Spawn the periodic writer on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.interval)
                self.write_snapshot()
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # surfaced on close()
            self.error = exc

    async def close(self) -> None:
        """Stop the task, write the final snapshot, flush and release."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        try:
            if self.error is None:
                self.write_snapshot()
        finally:
            self._file.flush()
            if self._owns_file:
                self._file.close()
        if self.error is not None:
            raise self.error
