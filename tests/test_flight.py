"""Tests for the violation flight recorder and its certifier wiring."""

import asyncio

import pytest

from repro.core.correctness import certify
from repro.core.online import OnlineCertifier
from repro.obs.export import load_jsonl
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.stream.service import StreamConfig, certify_stream

from conftest import BehaviorBuilder, rw_system
from test_online import random_contended_behavior


def rejected_case(max_seed=100):
    """The first random contended behavior whose certification latches
    an SG cycle."""
    for seed in range(max_seed):
        behavior, system = random_contended_behavior(seed)
        certificate = certify(behavior, system, construct_witness=False)
        if not certificate.certified and certificate.cycle is not None:
            return behavior, system
    raise AssertionError("no rejected seed found")


def arv_case():
    """A stale read: ARV violation without any SG cycle."""
    system = rw_system("x")
    b = BehaviorBuilder(system)
    t1 = b.begin_top("t1")
    b.write(t1, "w", "x", 7)
    b.commit(t1)
    t2 = b.begin_top("t2")
    b.read(t2, "r", "x", 0)
    b.commit(t2)
    return b.build(), system


class TestRecorder:
    def test_window_is_bounded_and_oldest_first(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "pm.jsonl", capacity=3)
        for position in range(5):
            recorder.record(position, f"a{position}")
        assert len(recorder) == 3
        assert recorder.window() == ((2, "a2"), (3, "a3"), (4, "a4"))

    def test_dump_record_shape(self, tmp_path):
        path = tmp_path / "pm.jsonl"
        registry = MetricsRegistry()
        recorder = FlightRecorder(path, metrics=registry)
        recorder.record(0, "alpha")
        recorder.record(1, "beta")
        assert recorder.dump(
            "cycle",
            session="s1",
            cycle=("T0", ["T0/a", "T0/b", "T0/a"]),
            metrics_snapshot=registry.snapshot(),
            context={"note": "test"},
        )
        (record,) = load_jsonl(path)
        assert record["reason"] == "cycle"
        assert record["session"] == "s1"
        assert [entry["action"] for entry in record["window"]] == [
            "alpha", "beta",
        ]
        assert [entry["position"] for entry in record["window"]] == [0, 1]
        assert record["cycle"] == {
            "parent": "T0",
            "nodes": ["T0/a", "T0/b", "T0/a"],
        }
        assert record["context"] == {"note": "test"}
        assert "counters" in record["metrics"]
        assert registry.snapshot()["counters"]["online.flight.dumps"] == 1

    def test_dump_budget_enforced(self, tmp_path):
        path = tmp_path / "pm.jsonl"
        recorder = FlightRecorder(path, max_dumps=2)
        assert recorder.dump("cycle")
        assert recorder.dump("cycle")
        assert not recorder.dump("cycle")
        assert len(load_jsonl(path)) == 2
        assert recorder.dumps == 2

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "pm.jsonl", capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "pm.jsonl", max_dumps=0)


class TestCertifierIntegration:
    def test_cycle_latch_dumps_postmortem(self, tmp_path):
        behavior, system = rejected_case()
        path = tmp_path / "pm.jsonl"
        recorder = FlightRecorder(path)
        certifier = OnlineCertifier(system, flight=recorder, session="audit")
        verdict = certifier.feed_all(behavior)
        assert not verdict.certified and verdict.cycle is not None
        records = load_jsonl(path)
        cycle_records = [r for r in records if r["reason"] == "cycle"]
        assert len(cycle_records) == 1  # the latch is monotone: one dump
        record = cycle_records[0]
        assert record["session"] == "audit"
        parent, nodes = verdict.cycle
        assert record["cycle"] == {
            "parent": str(parent),
            "nodes": [str(node) for node in nodes],
        }
        assert record["window"], "the action window must not be empty"
        # the window holds consecutive recent actions; each entry matches
        # the behavior at its recorded stream position
        positions = [entry["position"] for entry in record["window"]]
        assert positions == list(range(positions[0], positions[0] + len(positions)))
        for entry in record["window"]:
            assert entry["action"] == str(behavior[entry["position"]])

    def test_arv_violation_dumps_postmortem(self, tmp_path):
        behavior, system = arv_case()
        path = tmp_path / "pm.jsonl"
        certifier = OnlineCertifier(
            system, flight=FlightRecorder(path), session="stale"
        )
        verdict = certifier.feed_all(behavior)
        assert verdict.arv_violations and verdict.cycle is None
        records = load_jsonl(path)
        assert records and records[0]["reason"] == "arv"
        assert records[0]["cycle"] is None
        context = records[0]["context"]
        assert context["object"] == "x"
        assert context["illegal"]  # names the newly illegal transactions

    def test_verdict_unchanged_by_flight_recorder(self, tmp_path):
        for case in (rejected_case(), arv_case()):
            behavior, system = case
            plain = OnlineCertifier(system).feed_all(behavior)
            recorded = OnlineCertifier(
                system, flight=FlightRecorder(tmp_path / "v.jsonl")
            ).feed_all(behavior)
            assert plain == recorded

    def test_no_dump_on_certified_behavior(self, tmp_path):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.write(t, "w", "x", 1)
        b.commit(t)
        path = tmp_path / "pm.jsonl"
        recorder = FlightRecorder(path)
        verdict = OnlineCertifier(system, flight=recorder).feed_all(b.build())
        assert verdict.certified
        assert recorder.dumps == 0
        assert not path.exists()


class TestStreamIntegration:
    def test_flight_recorder_through_certify_stream(self, tmp_path):
        behavior, system = rejected_case()
        path = tmp_path / "pm.jsonl"
        recorder = FlightRecorder(path)
        result = asyncio.run(
            certify_stream(
                "flight",
                system,
                behavior,
                config=StreamConfig(compaction=False),
                flight=recorder,
            )
        )
        assert not result.verdict.certified
        records = load_jsonl(path)
        assert any(record["reason"] == "cycle" for record in records)
        assert all(record["session"] == "flight" for record in records)
