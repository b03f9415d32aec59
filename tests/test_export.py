"""Tests for metric exposition: Prometheus text format, JSONL snapshots.

Like the stream tests, everything async is driven through
:func:`asyncio.run` — ``pytest-asyncio`` is not a dependency.  The
round-trip tests are the acceptance criterion for the exposition
format: whatever :func:`to_prometheus` renders, :func:`parse_prometheus`
must read back into the same numbers.
"""

import asyncio
import io
import json
import math

import pytest

from repro.obs.export import (
    SnapshotExporter,
    load_jsonl,
    parse_prometheus,
    prometheus_name,
    to_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import JSONLFileSink, Tracer


def run(coroutine):
    return asyncio.run(coroutine)


def populated_registry():
    registry = MetricsRegistry()
    registry.inc("online.actions", 41)
    registry.inc("stream.sessions.opened", 3)
    registry.set_gauge("sg.nodes", 17)
    registry.set_gauge("driver.progress", 0.75)
    histogram = registry.histogram("stream.latency.feed_to_verdict")
    for value in (1e-4, 2e-3, 2e-3, 0.5, 20.0):  # 20 s lands in +inf
        histogram.observe(value)
    return registry


class TestPrometheusName:
    def test_dots_become_underscores_under_namespace(self):
        assert (
            prometheus_name("stream.latency.feed_to_verdict")
            == "repro_stream_latency_feed_to_verdict"
        )

    def test_namespace_not_doubled(self):
        assert prometheus_name("repro_already_flat") == "repro_already_flat"

    def test_illegal_characters_collapse(self):
        assert prometheus_name("a.b-c d", namespace="") == "a_b_c_d"


class TestRoundTrip:
    def test_counters_gauges_histograms_round_trip(self):
        registry = populated_registry()
        snapshot = registry.snapshot()
        families = parse_prometheus(to_prometheus(registry.snapshot()))

        assert families["repro_online_actions"] == {
            "type": "counter",
            "value": 41,
        }
        assert families["repro_driver_progress"] == {
            "type": "gauge",
            "value": 0.75,
        }
        hist = families["repro_stream_latency_feed_to_verdict"]
        assert hist["type"] == "histogram"
        assert hist["count"] == 5
        assert hist["sum"] == pytest.approx(snapshot["histograms"][
            "stream.latency.feed_to_verdict"
        ]["sum"])
        # bucket samples are cumulative and end at +Inf == count
        cumulative = list(hist["buckets"].values())
        assert cumulative == sorted(cumulative)
        assert hist["buckets"]["+Inf"] == 5

    def test_cumulative_buckets_match_per_bucket_counts(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 9.0):
            histogram.observe(value)
        hist = parse_prometheus(to_prometheus(registry.snapshot()))["repro_h"]
        assert hist["buckets"] == {"1.0": 1, "2.0": 3, "4.0": 4, "+Inf": 5}

    def test_round_trip_through_json_snapshot(self):
        """The snapshot-file shape (JSON round-tripped) renders the same."""
        registry = populated_registry()
        reparsed = json.loads(json.dumps(registry.snapshot()))
        assert to_prometheus(reparsed) == to_prometheus(registry.snapshot())

    def test_output_is_deterministic_and_newline_terminated(self):
        registry = populated_registry()
        text = to_prometheus(registry.snapshot())
        assert text == to_prometheus(registry.snapshot())
        assert text.endswith("\n")
        # families are sorted by name within each instrument kind
        by_kind = {}
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split()
                by_kind.setdefault(kind, []).append(name)
        for names in by_kind.values():
            assert names == sorted(names)

    def test_infinite_gauge_survives(self):
        registry = MetricsRegistry()
        registry.set_gauge("weird", math.inf)
        families = parse_prometheus(to_prometheus(registry.snapshot()))
        assert families["repro_weird"]["value"] == math.inf

    def test_unparseable_line_rejected(self):
        with pytest.raises(ValueError):
            parse_prometheus("!!! not a sample\n")


class TestSnapshotExporter:
    def test_periodic_snapshots_and_final_on_close(self, tmp_path):
        path = tmp_path / "snapshots.jsonl"

        async def scenario():
            registry = MetricsRegistry()
            registry.inc("work.items")
            exporter = SnapshotExporter(registry, path, interval=0.01)
            await exporter.start()
            await asyncio.sleep(0.06)
            await exporter.close()
            return registry

        registry = run(scenario())
        records = load_jsonl(path)
        assert len(records) >= 2  # at least one periodic + the final
        assert [record["sequence"] for record in records] == list(
            range(len(records))
        )
        # the exporter observes itself: the counter equals the dump count
        counters = registry.snapshot()["counters"]
        assert counters["obs.export.snapshots"] == len(records)
        assert records[-1]["snapshot"]["counters"]["work.items"] == 1

    def test_close_without_start_writes_single_final_snapshot(self, tmp_path):
        path = tmp_path / "single.jsonl"

        async def scenario():
            exporter = SnapshotExporter(MetricsRegistry(), path, interval=5.0)
            await exporter.close()

        run(scenario())
        assert len(load_jsonl(path)) == 1

    def test_metrics_command_renders_the_freshest_exported_snapshot(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "snapshots.jsonl"
        registry = MetricsRegistry()

        async def scenario():
            exporter = SnapshotExporter(registry, path, interval=5.0)
            exporter.write_snapshot()
            registry.inc("work.items", 3)
            await exporter.close()

        run(scenario())
        assert main(["metrics", str(path)]) == 0
        last = load_jsonl(path)[-1]["snapshot"]
        assert last["counters"]["work.items"] == 3
        assert capsys.readouterr().out == to_prometheus(last)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        assert main(["metrics", str(empty)]) == 1
        assert "empty snapshot file" in capsys.readouterr().err

    def test_buffered_final_snapshot_flushed_under_asyncio_run(self):
        """The shutdown guarantee: a file-object destination holds every
        written record after ``close()`` even though asyncio.run tears
        the loop down immediately afterwards."""
        buffer = io.StringIO()

        async def scenario():
            registry = MetricsRegistry()
            exporter = SnapshotExporter(registry, buffer, interval=0.01)
            await exporter.start()
            await asyncio.sleep(0.03)
            await exporter.close()

        run(scenario())
        lines = [line for line in buffer.getvalue().splitlines() if line]
        assert len(lines) >= 2
        assert all("snapshot" in json.loads(line) for line in lines)

    def test_writer_error_captured_and_reraised_on_close(self):
        class ExplodingFile(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return super().write(text)

        destination = ExplodingFile()

        async def scenario():
            registry = MetricsRegistry()
            exporter = SnapshotExporter(registry, destination, interval=0.01)
            await exporter.start()
            # wait until the failing write has happened
            for _ in range(100):
                await asyncio.sleep(0.01)
                if exporter.error is not None:
                    break
            with pytest.raises(OSError, match="disk full"):
                await exporter.close()
            return exporter

        exporter = run(scenario())
        assert isinstance(exporter.error, OSError)
        # no final snapshot was attempted after the error
        assert destination.writes == 2

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            SnapshotExporter(MetricsRegistry(), io.StringIO(), interval=0.0)


class TestJSONLFileSinkShutdown:
    def test_buffered_spans_flushed_on_close_under_asyncio_run(self, tmp_path):
        """Spans buffered far below ``flush_every`` still reach the file
        once ``close()`` runs — the CLI relies on this in its finally."""
        path = tmp_path / "trace.jsonl"

        async def scenario():
            tracer = Tracer(JSONLFileSink(path, flush_every=10_000))
            try:
                for index in range(7):
                    with tracer.span(f"step{index}"):
                        await asyncio.sleep(0)
            finally:
                tracer.close()

        run(scenario())
        spans = load_jsonl(path)
        assert [span["name"] for span in spans] == [
            f"step{index}" for index in range(7)
        ]
        assert all("wall_start" in span for span in spans)

    def test_spans_flushed_even_when_the_loop_body_raises(self, tmp_path):
        path = tmp_path / "partial.jsonl"

        async def scenario():
            tracer = Tracer(JSONLFileSink(path, flush_every=10_000))
            try:
                with tracer.span("completed"):
                    pass
                with tracer.span("failing"):
                    raise RuntimeError("boom")
            finally:
                tracer.close()

        with pytest.raises(RuntimeError, match="boom"):
            run(scenario())
        spans = load_jsonl(path)
        assert [span["name"] for span in spans] == ["completed", "failing"]
        assert spans[1]["tags"].get("error") is True
