"""E2 — Theorem 17: Moss locking behaviors are serially correct.

Sweeps workload size, nesting depth and abort rate; every produced
behavior must be certified by the serialization-graph test.  Expected
shape: zero violations anywhere in the sweep.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import pick
from _tables import print_table

from repro.core.correctness import certify
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import RandomPolicy
from repro.sim.workload import WorkloadConfig, generate_workload

SWEEP = pick(
    [
        # (top_level, objects, depth, abort_rate)
        (4, 2, 1, 0.0),
        (8, 4, 2, 0.0),
        (8, 4, 2, 0.1),
        (8, 4, 2, 0.3),
        (16, 8, 2, 0.1),
        (16, 8, 3, 0.3),
    ],
    [(4, 2, 1, 0.0), (8, 4, 2, 0.1)],
)
SEEDS = pick(range(4), range(1))


def run_sweep():
    rows = []
    for top_level, objects, depth, abort_rate in SWEEP:
        violations = 0
        committed = aborted = steps = 0
        for seed in SEEDS:
            config = WorkloadConfig(
                seed=seed, top_level=top_level, objects=objects, max_depth=depth
            )
            system_type, programs = generate_workload(config)
            system = make_generic_system(system_type, programs, MossRWLockingObject)
            policy = AbortInjector(
                RandomPolicy(seed), abort_rate=abort_rate, seed=seed
            )
            result = run_system(
                system, policy, system_type, max_steps=12_000,
                resolve_deadlocks=True,
            )
            certificate = certify(result.behavior, system_type)
            if not (certificate.certified and not certificate.witness_problems):
                violations += 1
            committed += result.stats.top_level_committed
            aborted += result.stats.aborted
            steps += result.stats.steps
        rows.append(
            (
                top_level,
                objects,
                depth,
                abort_rate,
                len(SEEDS),
                committed,
                aborted,
                steps,
                violations,
            )
        )
    return rows


@pytest.mark.benchmark(group="e2")
def test_e2_moss_theorem17(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        "E2: Theorem 17 — Moss locking, all runs serially correct",
        [
            "top", "objs", "depth", "abort%", "runs",
            "committed", "aborts", "steps", "violations",
        ],
        rows,
    )
    assert all(row[-1] == 0 for row in rows)
