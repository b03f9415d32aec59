"""Tests for the ``repro trace`` subcommand and the metrics CLI flags."""

import json

import pytest

from repro.cli import main
from repro.obs import load_jsonl_trace, span_coverage


class TestTraceCommand:
    def test_trace_writes_jsonl_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(["trace", "--seed", "7", "--out", str(out)])
        output = capsys.readouterr().out
        assert code == 0
        assert "certify phase coverage" in output
        spans = load_jsonl_trace(out)
        assert spans, "trace file must contain spans"
        names = {span["name"] for span in spans}
        assert {"trace", "simulate", "certify", "certify.build_graph"} <= names
        # every line is a complete span with the documented schema
        for span in spans:
            assert {"name", "span_id", "parent_id", "depth",
                    "start", "end", "dur", "tags"} <= set(span)
            assert span["end"] >= span["start"]
        metrics = json.loads((tmp_path / "t.jsonl.metrics.json").read_text())
        assert metrics["counters"]["certify.runs"] == 1
        assert metrics["counters"]["driver.steps"] > 0
        assert "trace.certify_coverage" in metrics["gauges"]

    def test_trace_coverage_meets_acceptance_bar(self, tmp_path):
        """Spans must cover >= 90% of certify wall time (acceptance check)."""
        out = tmp_path / "t.jsonl"
        assert main(["trace", "--seed", "7", "--out", str(out)]) == 0
        coverage = span_coverage(load_jsonl_trace(out), "certify")
        assert coverage is not None and coverage >= 0.90

    def test_trace_online_flag(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        code = main([
            "trace", "--seed", "5", "--out", str(out),
            "--metrics-json", str(metrics_path), "--online",
        ])
        assert code == 0
        assert "disagree" not in capsys.readouterr().err
        names = {span["name"] for span in load_jsonl_trace(out)}
        assert "online.feed_all" in names and "online.feed" in names
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["online.actions"] > 0


class TestMetricsFlags:
    def test_demo_stats_json(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        code = main(["demo", "--seed", "1", "--stats-json", str(stats_path)])
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert {"steps", "committed", "aborted", "deadlock_aborts",
                "blocked_access_steps", "quiescent",
                "action_counts"} <= set(stats)
        output = capsys.readouterr().out
        # summary line carries the satellite fields
        assert "deadlock_aborts=" in output
        assert "blocked_access_steps=" in output

    def test_demo_metrics_json(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        stats_path = tmp_path / "stats.json"
        code = main(["demo", "--seed", "3", "--abort-rate", "0.1",
                     "--transactions", "8", "--metrics-json", str(metrics_path),
                     "--stats-json", str(stats_path)])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        stats = json.loads(stats_path.read_text())
        counters = metrics["counters"]
        assert counters["certify.runs"] == 1
        # the run's counters are its stats, one name per non-zero count
        assert stats["aborted"] and stats["deadlock_aborts"]
        run_counters = {
            name: value for name, value in counters.items()
            if name.startswith(("driver.", "controller."))
        }
        assert run_counters == {
            "driver.steps": stats["steps"],
            "driver.deadlock_aborts": stats["deadlock_aborts"],
            "controller.commits": stats["committed"],
            "controller.top_level_commits": stats["top_level_committed"],
            "controller.aborts": stats["aborted"],
            **{f"driver.action.{kind}": count
               for kind, count in stats["action_counts"].items()},
        }
        assert stats["quiescent"] and metrics["gauges"]["driver.quiescent"] == 1

    def test_record_and_audit_metrics_json(self, tmp_path, capsys):
        case = tmp_path / "run.json"
        record_metrics = tmp_path / "record.json"
        code = main(["record", "--seed", "4", "-o", str(case),
                     "--metrics-json", str(record_metrics)])
        assert code == 0
        assert json.loads(record_metrics.read_text())["counters"][
            "driver.steps"] > 0
        capsys.readouterr()
        audit_metrics = tmp_path / "audit.json"
        code = main(["audit", str(case), "--metrics-json", str(audit_metrics)])
        assert code == 0
        assert json.loads(audit_metrics.read_text())["counters"][
            "certify.runs"] == 1

    def test_audit_online_metrics_json(self, tmp_path, capsys):
        case = tmp_path / "run.json"
        main(["record", "--seed", "4", "-o", str(case)])
        capsys.readouterr()
        metrics_path = tmp_path / "m.json"
        code = main(["audit", str(case), "--engine", "online",
                     "--metrics-json", str(metrics_path)])
        assert code == 0
        assert json.loads(metrics_path.read_text())["counters"][
            "online.actions"] > 0
