"""Tests for the sharded parallel batch-certification engine (`repro.parallel`).

The headline property, mirrored from the acceptance criteria: the
verdicts of a corpus certification are identical whatever the shard
fan-out — ``jobs=1`` (inline, no pool) and ``jobs=4`` (a real
multiprocessing pool) agree case-for-case on hundreds of randomized
workloads, both certified and rejected ones.
"""

import json

import pytest

from repro.cli import main
from repro.core.correctness import certify
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    CaseVerdict,
    _shard,
    certify_corpus,
    record_corpus,
    simulate_corpus,
)
from repro.sim.stats import RunStats

from test_core_properties import random_simple_behavior


@pytest.fixture(scope="module")
def random_corpus():
    """200+ seeded workloads, a mix of certified and rejected behaviors."""
    cases = []
    for seed in range(220):
        behavior, system_type = random_simple_behavior(seed, steps=25)
        cases.append((f"seed-{seed}", behavior, system_type))
    return cases


class TestShardEquivalence:
    def test_jobs1_vs_jobs4_on_200_seeded_workloads(self, random_corpus):
        serial = certify_corpus(random_corpus, jobs=1)
        parallel = certify_corpus(random_corpus, jobs=4)
        assert len(serial) == len(random_corpus) >= 200
        assert serial == parallel
        # the corpus must actually exercise both verdicts
        assert any(verdict.certified for verdict in serial)
        assert any(not verdict.certified for verdict in serial)

    def test_verdicts_match_direct_certify(self, random_corpus):
        sample = random_corpus[:20]
        verdicts = certify_corpus(sample, jobs=2)
        for (label, behavior, system_type), verdict in zip(sample, verdicts):
            certificate = certify(behavior, system_type, construct_witness=False)
            assert verdict.label == label
            assert verdict.certified == certificate.certified
            assert verdict.has_cycle == (certificate.cycle is not None)
            assert verdict.arv_violations == len(certificate.arv_violations)
            assert verdict.events == len(behavior)

    def test_results_are_in_input_order(self, random_corpus):
        sample = random_corpus[:13]
        verdicts = certify_corpus(sample, jobs=3)
        assert [verdict.label for verdict in verdicts] == [
            label for label, _, __ in sample
        ]

    def test_round_robin_shard_preserves_positions(self):
        sharded = _shard(list("abcdefg"), 3)
        assert [len(bucket) for bucket in sharded] == [3, 2, 2]
        flattened = sorted(entry for bucket in sharded for entry in bucket)
        assert flattened == list(enumerate("abcdefg"))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            certify_corpus([], jobs=0)

    def test_empty_corpus(self):
        assert certify_corpus([], jobs=4) == []


class TestMetrics:
    def test_shard_fanout_counters(self, random_corpus):
        registry = MetricsRegistry()
        verdicts = certify_corpus(random_corpus[:10], jobs=4, metrics=registry)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["parallel.jobs"] == 4
        assert snapshot["gauges"]["parallel.shards"] == 4
        assert snapshot["counters"]["parallel.cases"] == 10
        certified = sum(1 for verdict in verdicts if verdict.certified)
        assert snapshot["counters"].get("parallel.certified", 0) == certified
        assert snapshot["counters"].get("parallel.rejected", 0) == 10 - certified


class TestCorpusSimulation:
    def test_simulate_corpus_is_deterministic_and_parallel_invariant(self):
        inline = simulate_corpus(range(3), top_level=3, objects=2, jobs=1)
        pooled = simulate_corpus(range(3), top_level=3, objects=2, jobs=3)
        assert [behavior for behavior, _ in inline] == [
            behavior for behavior, _ in pooled
        ]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            simulate_corpus([0], algorithm="vaporware")

    def test_record_corpus_writes_loadable_cases(self, tmp_path):
        paths = [tmp_path / f"run-{seed}.json" for seed in (5, 6)]
        recorded = record_corpus([5, 6], paths, top_level=3, objects=2, jobs=2)
        assert [path for path, _ in recorded] == [str(path) for path in paths]
        from repro.core.serde import load_case

        for path, events in recorded:
            behavior, system_type = load_case(json.dumps(json.loads(
                open(path).read()
            )))
            assert len(behavior) == events
            assert certify(behavior, system_type).certified

    def test_record_corpus_output_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            record_corpus([1, 2], [tmp_path / "only-one.json"])


class TestCLI:
    def test_record_runs_then_parallel_audit(self, tmp_path, capsys):
        output = tmp_path / "corpus.json"
        assert main([
            "record", "--runs", "3", "--jobs", "2", "--seed", "20",
            "--transactions", "3", "--objects", "2", "-o", str(output),
        ]) == 0
        files = sorted(tmp_path.glob("corpus-s*.json"))
        assert [path.name for path in files] == [
            "corpus-s20.json", "corpus-s21.json", "corpus-s22.json"
        ]
        metrics = tmp_path / "audit-metrics.json"
        code = main([
            "audit", *[str(path) for path in files],
            "--jobs", "3", "--metrics-json", str(metrics),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 cases certified" in out
        snapshot = json.loads(metrics.read_text())
        assert snapshot["gauges"]["parallel.shards"] == 3

    def test_corpus_files_equal_single_records(self, tmp_path, capsys):
        assert main([
            "record", "--runs", "2", "--seed", "20",
            "-o", str(tmp_path / "corpus.json"),
        ]) == 0
        for seed in (20, 21):
            single = tmp_path / f"single-{seed}.json"
            assert main(["record", "--seed", str(seed), "-o", str(single)]) == 0
            corpus = tmp_path / f"corpus-s{seed}.json"
            assert corpus.read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_corpus_metrics_sum_the_runs(self, tmp_path, capsys, jobs):
        """``record --runs N --metrics-json`` publishes the runs' counters,
        summed: each equals the sum over single records of the seeds."""
        corpus = tmp_path / "corpus-metrics.json"
        assert main([
            "record", "--runs", "2", "--jobs", jobs, "--seed", "20",
            "-o", str(tmp_path / "corpus.json"), "--metrics-json", str(corpus),
        ]) == 0
        singles = []
        for seed in (20, 21):
            path = tmp_path / f"single-{seed}-metrics.json"
            assert main([
                "record", "--seed", str(seed), "-o", str(tmp_path / "single.json"),
                "--metrics-json", str(path),
            ]) == 0
            singles.append(json.loads(path.read_text()))
        merged = json.loads(corpus.read_text())
        run_counters = {
            name: value
            for name, value in merged["counters"].items()
            if name.startswith(("driver.", "controller."))
        }
        expected = {}
        for single in singles:
            for name, value in single["counters"].items():
                expected[name] = expected.get(name, 0) + value
        assert run_counters == expected
        assert run_counters["driver.steps"] > 0
        assert merged["counters"]["parallel.cases"] == 2
        assert all(s["gauges"].get("driver.quiescent") == 1 for s in singles)
        assert merged["gauges"]["driver.quiescent"] == 1

    def test_merged_stats_drain_only_when_every_run_did(self):
        drained = RunStats(steps=5, action_counts={"Commit": 2}, quiescent=True)
        cut = RunStats(steps=7, action_counts={"Commit": 1, "Abort": 1})
        total = RunStats.merged([drained, cut])
        assert total.steps == 12
        assert total.action_counts == {"Commit": 3, "Abort": 1}
        assert not total.quiescent
        assert RunStats.merged([drained, drained]).quiescent
        # every counter is summed, not only the ones named here
        counters = [
            name for name, value in RunStats().to_dict().items()
            if type(value) is int
        ]
        once = RunStats(**{name: 1 for name in counters})
        twice = RunStats.merged([once, once]).to_dict()
        assert {name: twice[name] for name in counters} == dict.fromkeys(counters, 2)
        registry = MetricsRegistry()
        total.record(registry)
        assert "driver.quiescent" not in registry.snapshot()["gauges"]

    def test_audit_online_engine(self, tmp_path, capsys):
        output = tmp_path / "run.json"
        assert main([
            "record", "--seed", "3", "--transactions", "3", "--objects", "2",
            "-o", str(output),
        ]) == 0
        capsys.readouterr()
        code = main(["audit", str(output), "--engine", "online"])
        assert code == 0
        assert "CERTIFIED (online engine)" in capsys.readouterr().out

    def test_case_verdict_str(self):
        verdict = CaseVerdict("run.json", False, 2, True, 64)
        text = str(verdict)
        assert "NOT certified" in text and "2 ARV violations" in text
        assert "SG cycle" in text
