"""Span-style tracing with pluggable sinks and a zero-overhead no-op.

A :class:`Tracer` hands out context-manager *spans*::

    tracer = Tracer(RingBufferSink())
    with tracer.span("certify"):
        with tracer.span("certify.build_graph", events=128):
            ...

Each span records wall-clock start/end (``time.perf_counter``), its
nesting depth and parent, and free-form tags; completed spans are
pushed to every configured sink.  Three sinks ship with the package:

* :class:`RingBufferSink` — keeps the last N spans in memory (the
  default the ``repro trace`` CLI analyses);
* :class:`JSONLFileSink` — one JSON object per line, the trace-file
  format documented in ``docs/OBSERVABILITY.md``;
* :class:`LoggingSink` — forwards spans to :mod:`logging` for
  deployments that already aggregate logs.

Uninstrumented code paths use :data:`NULL_TRACER`, whose ``span`` call
returns a shared do-nothing context manager — no allocation, no clock
reads — so the instrumented functions cost ~nothing when tracing is
off.  ``if tracer:`` is the idiomatic enabled-check (:class:`NullTracer`
is falsy).
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union

from .metrics import MetricsRegistry

__all__ = [
    "Span",
    "SpanSink",
    "RingBufferSink",
    "JSONLFileSink",
    "LoggingSink",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span_coverage",
    "load_jsonl_trace",
]


@dataclass
class Span:
    """One completed (or in-flight) traced region."""

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    start: float
    end: Optional[float] = None
    tags: Dict[str, Any] = field(default_factory=dict)
    #: epoch seconds (``time.time()``) at span open — ``start``/``end``
    #: are ``perf_counter`` offsets, meaningless across processes, so
    #: this is what lets JSONL traces from different processes or
    #: sessions be aligned on one wall-clock axis.
    wall_start: float = 0.0

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "dur": self.duration,
            "wall_start": self.wall_start,
            "tags": self.tags,
        }


class SpanSink:
    """Receiver of completed spans; subclass and override :meth:`emit`."""

    def emit(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; no-op by default."""


class RingBufferSink(SpanSink):
    """Keep the most recent ``capacity`` completed spans in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        self._buffer: "deque[Span]" = deque(maxlen=capacity)

    def emit(self, span: Span) -> None:
        self._buffer.append(span)

    def spans(self) -> Tuple[Span, ...]:
        return tuple(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


class JSONLFileSink(SpanSink):
    """Write each completed span as one JSON line (the trace-file format).

    Completed :class:`Span` objects are buffered and serialized and
    written in batches of ``flush_every`` (and on :meth:`close`), so a
    span's completion costs one list append: neither ``json.dumps`` nor
    file I/O runs inside the traced region, where a child's encoding
    would count as untraced time of its parent.  A tag JSON cannot
    encode raises ``TypeError`` from the flush that serializes it.
    """

    def __init__(
        self,
        destination: Union[str, Path, IO[str]],
        flush_every: int = 1000,
    ) -> None:
        if hasattr(destination, "write"):
            self._file: IO[str] = destination  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(destination, "w", encoding="utf-8")
            self._owns_file = True
        self._flush_every = max(flush_every, 1)
        self._pending: List[Span] = []

    def emit(self, span: Span) -> None:
        self._pending.append(span)
        if len(self._pending) >= self._flush_every:
            self._flush()

    def _flush(self) -> None:
        pending, self._pending = self._pending, []
        if pending:
            self._file.write(
                "".join(json.dumps(span.to_dict()) + "\n" for span in pending)
            )

    def close(self) -> None:
        try:
            self._flush()
        finally:
            self._file.flush()
            if self._owns_file:
                self._file.close()


class LoggingSink(SpanSink):
    """Forward completed spans to the standard :mod:`logging` machinery."""

    def __init__(
        self,
        logger: Union[str, logging.Logger] = "repro.obs",
        level: int = logging.DEBUG,
    ) -> None:
        self._logger = (
            logging.getLogger(logger) if isinstance(logger, str) else logger
        )
        self._level = level

    def emit(self, span: Span) -> None:
        self._logger.log(
            self._level,
            "span %s dur=%.6fs depth=%d tags=%s",
            span.name,
            span.duration,
            span.depth,
            span.tags,
        )


class _ActiveSpan:
    """Context manager binding a :class:`Span` to its tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set_tag(self, key: str, value: Any) -> None:
        self.span.set_tag(key, value)

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[Any],
    ) -> bool:
        self._tracer._finish(self.span, failed=exc_type is not None)
        return False


class _NullSpan:
    """The shared do-nothing span used when tracing is disabled."""

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[Any],
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Hands out nested, timed spans and fans completions out to sinks.

    When a ``metrics`` registry is supplied, every completed span also
    feeds a duration histogram named ``span.<name>`` — so traces and
    metrics stay consistent without double instrumentation.
    """

    def __init__(
        self,
        *sinks: SpanSink,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sinks: List[SpanSink] = list(sinks)
        self.metrics = metrics
        self._stack: List[Span] = []
        self._next_id = 1

    def __bool__(self) -> bool:
        return True

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **tags: Any) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("phase", key=value):``."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            start=time.perf_counter(),
            tags=tags,
            wall_start=time.time(),
        )
        self._next_id += 1
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def _finish(self, span: Span, failed: bool = False) -> None:
        span.end = time.perf_counter()
        if failed:
            span.tags["error"] = True
        # pop through any abandoned children (shouldn't happen with
        # well-nested context managers, but stay robust)
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if self.metrics is not None:
            self.metrics.observe(f"span.{span.name}", span.duration)
        for sink in self.sinks:
            sink.emit(span)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class NullTracer:
    """A tracer whose spans do nothing; falsy so hot paths can skip work."""

    sinks: Tuple[SpanSink, ...] = ()
    metrics = None

    def __bool__(self) -> bool:
        return False

    @property
    def current_span(self) -> None:
        return None

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Trace analysis helpers (used by the ``repro trace`` CLI and the tests)
# ---------------------------------------------------------------------------


def load_jsonl_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file back into a list of span dicts."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def span_coverage(
    spans: Iterable[Union[Span, Dict[str, Any]]], root_name: str
) -> Optional[float]:
    """Fraction of ``root_name``'s wall time covered by its direct children.

    This is the self-time audit the acceptance check uses: a well
    instrumented phase decomposition leaves little untraced residue
    inside the root span.  Returns ``None`` when no completed span named
    ``root_name`` exists; with several roots (e.g. one per benchmark
    iteration) the total child time over total root time is returned.
    """
    as_dicts = [
        span.to_dict() if isinstance(span, Span) else span for span in spans
    ]
    roots = [
        span
        for span in as_dicts
        if span["name"] == root_name and span.get("end") is not None
    ]
    if not roots:
        return None
    root_ids = {span["span_id"] for span in roots}
    root_time = sum(span["dur"] for span in roots)
    child_time = sum(
        span["dur"]
        for span in as_dicts
        if span.get("parent_id") in root_ids and span.get("end") is not None
    )
    if root_time <= 0.0:
        return 1.0
    return min(child_time / root_time, 1.0)
