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
