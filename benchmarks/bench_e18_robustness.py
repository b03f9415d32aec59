"""E18 — static robustness analysis vs bounded dynamic exploration.

The PR 10 robustness analyzer (``repro.analysis.robustness``) decides
whether a set of ``TransactionProgram`` templates can *ever* produce a
cyclic serialization graph, without running the system: summary
extraction, a static serialization graph over template footprints via
the commutativity probes, realizability-checked dangerous structures,
and a directed validation bridge that replays each counterexample
through the real driver over a ``PermissiveObject``.

The alternative it replaces is undirected search: run the program set
under seeded exploration and hope an interleaving trips the oracle.
This benchmark times both lanes over the shipped scenario catalogue and
a generated-workload corpus, asserts every verdict matches the recorded
expectation and every NOT-ROBUST verdict is dynamically witnessed, and
writes ``BENCH_e18_robustness.json``: static analysis cost, validated
(static + directed replay) cost, bounded-exploration cost, and how
often blind exploration even *finds* the cycle the analyzer proves.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _obs import write_bench_json
from _smoke import SMOKE, pick
from _tables import print_table

from repro.analysis.robustness import analyze_robustness, explore_program_set
from repro.obs.metrics import MetricsRegistry
from repro.scenarios import build_program_scenario, program_scenario_names
from repro.sim.workload import WorkloadConfig, generate_program_set

#: seeds handed to the undirected-exploration baseline per program set
EXPLORE_SEEDS = pick(16, 2)
#: generated program sets analysed in the corpus lane
GENERATED_SETS = pick(60, 4)
GENERATED_BASE_SEED = 4200


def timed_analysis(objects, programs, validate):
    registry = MetricsRegistry()
    start = time.perf_counter()
    report = analyze_robustness(
        objects, programs, validate=validate, metrics=registry
    )
    seconds = time.perf_counter() - start
    return report, seconds, registry.snapshot()["counters"]


def timed_exploration(objects, programs):
    start = time.perf_counter()
    cycle = explore_program_set(objects, programs, seeds=EXPLORE_SEEDS)
    seconds = time.perf_counter() - start
    return cycle, seconds


def run_catalogue():
    rows = []
    scenarios = {}
    for name in program_scenario_names():
        objects, programs, expectation = build_program_scenario(name)
        static_report, static_seconds, _ = timed_analysis(
            objects, programs, validate=False
        )
        report, validated_seconds, counters = timed_analysis(
            objects, programs, validate=not expectation.robust
        )
        assert static_report.robust == report.robust == expectation.robust
        if expectation.classification:
            assert expectation.classification in report.classifications
        if not expectation.robust:
            # the validation bridge must witness the predicted cycle
            assert report.validations and report.witnessed
        objects, programs, _ = build_program_scenario(name)
        cycle, explore_seconds = timed_exploration(objects, programs)
        scenarios[name] = {
            "robust": report.robust,
            "classifications": sorted(report.classifications),
            "static_seconds": static_seconds,
            "validated_seconds": validated_seconds,
            "explore_seconds": explore_seconds,
            "explore_found_cycle": cycle is not None,
            "counters": {
                key: value
                for key, value in counters.items()
                if key.startswith("robustness.")
            },
        }
        rows.append(
            (
                name,
                report.verdict,
                f"{static_seconds * 1e3:.1f}",
                f"{validated_seconds * 1e3:.1f}",
                f"{explore_seconds * 1e3:.1f}",
                "yes" if cycle is not None else "no",
            )
        )
    return scenarios, rows


def run_generated_corpus():
    robust = not_robust = 0
    start = time.perf_counter()
    for offset in range(GENERATED_SETS):
        config = WorkloadConfig(
            objects=2,
            top_level=3,
            max_calls=2,
            seed=GENERATED_BASE_SEED + offset,
        )
        objects, programs = generate_program_set(config)
        report = analyze_robustness(objects, programs, validate=False)
        if report.robust:
            # soundness spot-check: a ROBUST verdict means no seeded
            # exploration may ever surface a cyclic serialization graph
            objects, programs = generate_program_set(config)
            assert explore_program_set(objects, programs, seeds=2) is None
            robust += 1
        else:
            not_robust += 1
    seconds = time.perf_counter() - start
    return {
        "sets": GENERATED_SETS,
        "robust": robust,
        "not_robust": not_robust,
        "total_seconds": seconds,
        "seconds_per_set": seconds / max(GENERATED_SETS, 1),
    }


def run_benchmark():
    scenarios, rows = run_catalogue()
    corpus = run_generated_corpus()
    report = {"scenarios": scenarios, "generated": corpus}
    write_bench_json("e18_robustness", report)
    return report, rows


@pytest.mark.benchmark(group="e18")
def test_e18_static_analysis_vs_exploration(benchmark):
    report, rows = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    print_table(
        "E18: robustness analyzer vs bounded undirected exploration",
        [
            "scenario",
            "verdict",
            "static (ms)",
            "validated (ms)",
            f"explore x{EXPLORE_SEEDS} (ms)",
            "explored cycle",
        ],
        rows,
    )
    scenarios = report["scenarios"]
    dangerous = [s for s in scenarios.values() if not s["robust"]]
    assert dangerous, "catalogue lost its NOT-ROBUST scenarios"
    # every dangerous scenario carries at least one counterexample and
    # a directed validation run
    for entry in dangerous:
        counters = entry["counters"]
        assert counters["robustness.counterexamples"] >= 1
        assert counters["robustness.validation.directed"] >= 1
        assert counters.get("robustness.validation.missed", 0) == 0
    corpus = report["generated"]
    assert corpus["robust"] + corpus["not_robust"] == corpus["sets"]
    if not SMOKE:
        # full mode exercises a corpus with both verdicts represented
        assert corpus["robust"] > 0 and corpus["not_robust"] > 0
        # the directed bridge must beat undirected search at *finding*
        # the cycle: every NOT-ROBUST catalogue verdict is witnessed by
        # the directed schedule itself, never only by the random
        # fallback — blind exploration may miss even with many seeds
        for entry in dangerous:
            counters = entry["counters"]
            assert counters["robustness.validation.directed"] >= 1
            assert counters.get("robustness.validation.explored", 0) == 0
