"""Tests for the observability layer: metrics, tracer, sinks, run counters."""

import json
import logging

import pytest

from repro.core.correctness import certify
from repro.core.online import OnlineCertifier
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.obs.export import load_jsonl
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import (
    _NULL_SPAN,
    NULL_TRACER,
    JSONLFileSink,
    LoggingSink,
    NullTracer,
    RingBufferSink,
    Tracer,
    span_coverage,
)
from repro.parallel import seeded_run
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.stats import RunStats
from repro.sim.workload import WorkloadConfig, generate_workload


def run_workload(seed=7, top_level=4):
    system_type, programs = generate_workload(
        WorkloadConfig(seed=seed, top_level=top_level, objects=3, max_depth=2)
    )
    system = make_generic_system(system_type, programs, MossRWLockingObject)
    result = run_system(
        system,
        EagerInformPolicy(seed=seed),
        system_type,
        resolve_deadlocks=True,
    )
    return result, system_type


class TestMetrics:
    def test_counter_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.snapshot() == 1.5

    def test_histogram_buckets(self):
        histogram = Histogram(buckets=(1, 10, 100))
        for value in (0.5, 5, 5, 50, 500):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"1": 1, "10": 2, "100": 1, "+inf": 1}
        assert snapshot["count"] == 5
        assert snapshot["min"] == 0.5 and snapshot["max"] == 500
        assert snapshot["mean"] == pytest.approx(560.5 / 5)

    def test_registry_get_or_create_and_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        registry.inc("a.count", 2)
        registry.set_gauge("b.size", 42)
        registry.observe("c.latency", 0.005)
        assert registry.counter("a.count") is registry.counter("a.count")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a.count"] == 3
        assert snapshot["gauges"]["b.size"] == 42
        assert snapshot["histograms"]["c.latency"]["count"] == 1
        # JSON round-trips
        assert json.loads(registry.to_json()) == snapshot

    def test_registry_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("x")
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        assert json.loads(path.read_text())["counters"]["x"] == 1

    def test_registry_reset(self):
        registry = MetricsRegistry()
        registry.inc("x")
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestTracer:
    def test_nesting_depth_and_parent(self):
        ring = RingBufferSink()
        tracer = Tracer(ring)
        with tracer.span("outer") as outer:
            with tracer.span("inner", obj="x"):
                pass
        spans = {span.name: span for span in ring.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].depth == 1
        assert spans["outer"].depth == 0
        assert spans["inner"].tags == {"obj": "x"}
        assert spans["outer"].duration >= spans["inner"].duration >= 0
        # children emitted before parents (completion order)
        assert [span.name for span in ring.spans()] == ["inner", "outer"]
        assert outer.span.end is not None

    def test_error_tagging(self):
        ring = RingBufferSink()
        tracer = Tracer(ring)
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = ring.spans()
        assert span.tags.get("error") is True
        assert tracer.current_span is None

    def test_metrics_integration(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with tracer.span("phase"):
            pass
        assert registry.snapshot()["histograms"]["span.phase"]["count"] == 1

    def test_ring_buffer_capacity(self):
        ring = RingBufferSink(capacity=2)
        tracer = Tracer(ring)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [span.name for span in ring.spans()] == ["s3", "s4"]

    def test_jsonl_sink_and_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JSONLFileSink(path))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.close()
        spans = load_jsonl(path)
        assert [span["name"] for span in spans] == ["b", "a"]
        assert all(span["dur"] >= 0 for span in spans)

    def test_jsonl_sink_serializes_at_flush_not_in_the_span(
        self, tmp_path, monkeypatch
    ):
        """A span's completion only buffers it: ``json.dumps`` runs when
        the batch flushes, outside every traced region."""
        import repro.obs.tracer as tracer_module

        dumped = []
        real_dumps = tracer_module.json.dumps

        def counting_dumps(obj, *args, **kwargs):
            dumped.append(obj["name"])
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(tracer_module.json, "dumps", counting_dumps)
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JSONLFileSink(path, flush_every=3))
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
            assert dumped == []
        assert dumped == ["a", "b", "root"]  # the third span flushed the batch
        with tracer.span("c"):
            pass
        assert dumped == ["a", "b", "root"]
        tracer.close()
        assert dumped == ["a", "b", "root", "c"]
        assert [span["name"] for span in load_jsonl(path)] == dumped

    def test_jsonl_sink_unencodable_tag_fails_at_flush(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JSONLFileSink(path)
        tracer = Tracer(sink)
        with tracer.span("bad", payload=object()):
            pass
        with pytest.raises(TypeError):
            tracer.close()
        # the file is released even though the flush failed
        assert sink._file.closed

    def test_spans_carry_epoch_wall_start(self, tmp_path):
        """``wall_start`` is epoch time, so traces from different
        processes (whose perf_counter origins differ) can be aligned."""
        import time

        ring = RingBufferSink()
        before = time.time()
        with Tracer(ring).span("aligned"):
            pass
        after = time.time()
        (span,) = ring.spans()
        assert before <= span.wall_start <= after
        assert span.to_dict()["wall_start"] == span.wall_start
        # the monotonic start/end stamps are a different clock domain
        assert span.start != span.wall_start

    def test_logging_sink(self, caplog):
        tracer = Tracer(LoggingSink("repro.obs.test", level=logging.INFO))
        with caplog.at_level(logging.INFO, logger="repro.obs.test"):
            with tracer.span("logged"):
                pass
        assert any("logged" in record.message for record in caplog.records)

    def test_null_tracer_is_falsy_shared_noop(self):
        assert not NULL_TRACER
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.span("anything", k=1) is _NULL_SPAN
        with NULL_TRACER.span("x") as span:
            span.set_tag("k", "v")  # no-op, no error
        assert Tracer()  # a real tracer is truthy

    def test_span_coverage(self):
        ring = RingBufferSink()
        tracer = Tracer(ring)
        with tracer.span("root"):
            with tracer.span("child1"):
                pass
            with tracer.span("child2"):
                pass
        coverage = span_coverage(ring.spans(), "root")
        assert coverage is not None and 0.0 <= coverage <= 1.0
        assert span_coverage(ring.spans(), "absent") is None


class TestHooksIntegration:
    def test_run_stats_record_writes_each_kept_name(self):
        # injected aborts, deadlock victims and top-level commits in one run
        stats = seeded_run(3, top_level=8, abort_rate=0.1)[0].stats
        assert stats.aborted and stats.deadlock_aborts
        assert stats.top_level_committed and stats.quiescent
        registry = MetricsRegistry()
        stats.record(registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {
            "driver.steps": stats.steps,
            "driver.deadlock_aborts": stats.deadlock_aborts,
            "controller.commits": stats.committed,
            "controller.top_level_commits": stats.top_level_committed,
            "controller.aborts": stats.aborted,
            **{f"driver.action.{kind}": count
               for kind, count in stats.action_counts.items()},
        }
        assert snapshot["gauges"] == {"driver.quiescent": 1}
        assert snapshot["histograms"] == {}
        # a name is created only for a count the run made
        empty = MetricsRegistry()
        RunStats().record(empty)
        assert empty.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_certify_spans_cover_phases(self):
        result, system_type = run_workload(top_level=6)
        ring = RingBufferSink()
        registry = MetricsRegistry()
        tracer = Tracer(ring, metrics=registry)
        # a lazy input: the events tag is set once the stream is consumed
        certificate = certify(
            (action for action in result.behavior),
            system_type,
            tracer=tracer,
            metrics=registry,
        )
        assert certificate.certified
        spans = ring.spans()
        names = {span.name for span in spans}
        assert {
            "certify",
            "certify.project",
            "certify.arv",
            "certify.build_graph",
            "certify.find_cycle",
            "certify.witness",
            "certify.witness.order",
            "certify.witness.build",
            "certify.witness.validate",
            "certify.witness.check",
            "sg.conflict_pairs",
            "sg.precedes_pairs",
        } <= names
        root = next(s for s in spans if s.name == "certify")
        assert root.tags["events"] == len(result.behavior)
        witness = next(s for s in spans if s.name == "certify.witness")
        assert {
            s.name for s in spans if s.parent_id == witness.span_id
        } == {
            "certify.witness.order",
            "certify.witness.build",
            "certify.witness.validate",
            "certify.witness.check",
        }
        coverage = span_coverage(spans, "certify")
        assert coverage is not None and coverage >= 0.75
        gauges = registry.snapshot()["gauges"]
        assert gauges["sg.nodes"] == len(certificate.graph.nodes())
        assert gauges["sg.edges"] == certificate.graph.edge_count()

    def test_certify_unchanged_without_instrumentation(self):
        result, system_type = run_workload()
        plain = certify(result.behavior, system_type)
        traced = certify(
            result.behavior,
            system_type,
            tracer=Tracer(RingBufferSink()),
            metrics=MetricsRegistry(),
        )
        assert plain.certified == traced.certified
        assert plain.witness == traced.witness

    def test_online_certifier_metrics(self):
        result, system_type = run_workload()
        registry = MetricsRegistry()
        ring = RingBufferSink()
        certifier = OnlineCertifier(
            system_type, tracer=Tracer(ring), metrics=registry
        )
        verdict = certifier.feed_all(result.behavior)
        counters = registry.snapshot()["counters"]
        assert counters["online.actions"] > 0
        assert counters["online.visible_insertions"] > 0
        edge_total = counters.get("online.edges.conflict", 0) + counters.get(
            "online.edges.precedes", 0
        )
        assert edge_total == certifier.graph.edge_count()
        assert verdict.certified == certify(
            result.behavior, system_type, construct_witness=False
        ).certified
        feed_spans = [s for s in ring.spans() if s.name == "online.feed"]
        assert len(feed_spans) == counters["online.actions"]

    def test_online_certifier_verdict_unchanged_by_instrumentation(self):
        result, system_type = run_workload(seed=11)
        plain = OnlineCertifier(system_type).feed_all(result.behavior)
        instrumented = OnlineCertifier(
            system_type, metrics=MetricsRegistry()
        ).feed_all(result.behavior)
        assert plain == instrumented
