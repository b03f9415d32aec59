"""repro.obs — tracing and metrics for the repro stack.

The observability layer the rest of the library is instrumented with:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms,
  snapshot-to-dict/JSON (:mod:`repro.obs.metrics`);
* :class:`Tracer` — nested context-manager spans with wall-clock timing,
  tags and pluggable sinks (ring buffer, JSONL file, ``logging``),
  behind the zero-overhead :data:`NULL_TRACER` default
  (:mod:`repro.obs.tracer`);
* streaming quantiles — log-bucket layouts with bounded relative error
  (:mod:`repro.obs.quantiles`);
* exposition — Prometheus text rendering of any registry snapshot and
  the periodic :class:`SnapshotExporter` task (:mod:`repro.obs.export`);
* :class:`FlightRecorder` — bounded ring of recent actions dumped as a
  post-mortem when a violation latches (:mod:`repro.obs.flight`).

See ``docs/OBSERVABILITY.md`` for the full API tour, the JSONL trace
schema and measured overheads; ``repro trace --help`` for the CLI.
"""

from .export import (
    SnapshotExporter,
    load_snapshots,
    parse_prometheus,
    prometheus_name,
    render_registry,
    to_prometheus,
)
from .flight import FlightRecorder, load_postmortems
from .metrics import (
    DEFAULT_DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .quantiles import (
    LATENCY_BUCKETS,
    bucket_quantile,
    latency_histogram,
    log_buckets,
)
from .tracer import (
    NULL_TRACER,
    JSONLFileSink,
    LoggingSink,
    NullTracer,
    RingBufferSink,
    Span,
    SpanSink,
    Tracer,
    load_jsonl_trace,
    span_coverage,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_DURATION_BUCKETS",
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
    "log_buckets",
    "LATENCY_BUCKETS",
    "bucket_quantile",
    "latency_histogram",
    "prometheus_name",
    "to_prometheus",
    "render_registry",
    "parse_prometheus",
    "SnapshotExporter",
    "load_snapshots",
    "FlightRecorder",
    "load_postmortems",
]
