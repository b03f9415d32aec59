"""E6 — checker cost: serialization-graph construction scaling.

Measures SG construction + acyclicity checking over increasingly long
behaviors (generated once, outside the timed region).  Expected shape:
cost grows smoothly with behavior length; the per-object quadratic
conflict enumeration dominates only under heavy same-object contention.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _obs import instrumented_run, phase_totals, write_bench_json
from _smoke import pick
from _tables import print_table

from repro.core.events import serial_projection
from repro.core.serialization_graph import build_serialization_graph
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.obs.metrics import MetricsRegistry
from repro.parallel import certify_corpus, simulate_corpus
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.workload import WorkloadConfig, generate_workload


def make_behavior(top_level: int, objects: int, seed: int = 0):
    config = WorkloadConfig(
        seed=seed, top_level=top_level, objects=objects, max_depth=2, max_calls=3
    )
    system_type, programs = generate_workload(config)
    system = make_generic_system(system_type, programs, MossRWLockingObject)
    result = run_system(
        system,
        EagerInformPolicy(seed=seed),
        system_type,
        max_steps=60_000,
        resolve_deadlocks=True,
    )
    return serial_projection(result.behavior), system_type


CASES = pick(
    [(8, 4), (16, 8), (32, 8), (64, 16), (128, 16), (256, 32)],
    [(8, 4), (16, 8)],
)


@pytest.fixture(scope="module")
def behaviors():
    return {case: make_behavior(*case) for case in CASES}


@pytest.mark.benchmark(group="e6")
@pytest.mark.parametrize("case", CASES, ids=[f"top{t}_obj{o}" for t, o in CASES])
def test_e6_sg_construction_scaling(benchmark, behaviors, case):
    serial, system_type = behaviors[case]

    def build():
        graph = build_serialization_graph(serial, system_type)
        return graph.is_acyclic()

    acyclic = benchmark(build)
    assert acyclic
    print_table(
        f"E6: SG construction over {len(serial)} serial events "
        f"(top={case[0]}, objects={case[1]})",
        ["events", "accesses", "objects"],
        [(len(serial), len(system_type.all_accesses()), case[1])],
    )


@pytest.mark.benchmark(group="e6")
def test_e6_phase_breakdown(benchmark, behaviors):
    """One traced build per case: where SG construction time actually goes.

    Writes ``BENCH_e6_phases.json`` with per-case phase timings (seed
    nodes / conflict enumeration / precedes enumeration) so regressions
    can be localised to a phase, not just seen in the total.
    """

    def breakdown():
        report = {}
        rows = []
        for case, (serial, system_type) in behaviors.items():
            _, registry, spans = instrumented_run(
                lambda tracer, metrics: build_serialization_graph(
                    serial, system_type, tracer=tracer, metrics=metrics
                )
            )
            phases = phase_totals(spans, prefix="sg.")
            snapshot = registry.snapshot()
            label = f"top{case[0]}_obj{case[1]}"
            report[label] = {
                "events": len(serial),
                "phases_seconds": phases,
                "gauges": snapshot["gauges"],
            }
            rows.append(
                (
                    label,
                    len(serial),
                    f"{phases.get('sg.conflict_pairs', 0.0) * 1e3:.2f}",
                    f"{phases.get('sg.precedes_pairs', 0.0) * 1e3:.2f}",
                    int(snapshot["gauges"].get("sg.edges", 0)),
                )
            )
        return report, rows

    report, rows = benchmark.pedantic(breakdown, rounds=1, iterations=1)
    path = write_bench_json("e6_phases", report)
    print_table(
        f"E6: per-phase SG construction timings (written to {path.name})",
        ["case", "events", "conflict (ms)", "precedes (ms)", "edges"],
        rows,
    )


@pytest.mark.benchmark(group="e6")
def test_e6_sharded_corpus_certification(benchmark):
    """Sharded batch certification of a recorded corpus (the --jobs path).

    Certifies the same 12-case corpus at several shard fan-outs and
    asserts the verdicts are identical; writes
    ``BENCH_e6_parallel.json`` with per-fan-out wall time and the
    ``parallel.*`` counters.  Wall-clock speedup depends on the host's
    core count (this is a correctness + methodology benchmark; see
    docs/PERFORMANCE.md for how to read the numbers).
    """
    corpus = simulate_corpus(range(pick(12, 3)), top_level=8, objects=4, jobs=1)
    cases = [
        (f"seed-{seed}", behavior, system_type)
        for seed, (behavior, system_type) in enumerate(corpus)
    ]

    def certify_at_fanouts():
        report = {}
        rows = []
        baseline = None
        for jobs in (1, 2, 4):
            registry = MetricsRegistry()
            start = time.perf_counter()
            verdicts = certify_corpus(cases, jobs=jobs, metrics=registry)
            seconds = time.perf_counter() - start
            if baseline is None:
                baseline = verdicts
            assert verdicts == baseline  # fan-out never changes a verdict
            snapshot = registry.snapshot()
            report[f"jobs{jobs}"] = {
                "cases": len(verdicts),
                "certified": sum(1 for v in verdicts if v.certified),
                "seconds": seconds,
                "gauges": snapshot["gauges"],
                "counters": snapshot["counters"],
            }
            rows.append(
                (
                    jobs,
                    int(snapshot["gauges"].get("parallel.shards", 0)),
                    len(verdicts),
                    f"{seconds * 1e3:.1f}",
                )
            )
        return report, rows

    report, rows = benchmark.pedantic(certify_at_fanouts, rounds=1, iterations=1)
    path = write_bench_json("e6_parallel", report)
    print_table(
        f"E6: sharded corpus certification (written to {path.name})",
        ["jobs", "shards", "cases", "wall (ms)"],
        rows,
    )
