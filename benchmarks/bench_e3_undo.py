"""E3 — Theorem 25: undo logging is serially correct over arbitrary types.

Sweeps the built-in data types (counter, set, bank account, queue,
exact register) and abort rates; every behavior must be certified by
the generalized serialization-graph test of Section 6.  Expected shape:
zero violations anywhere.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.correctness import certify
from repro.generic.system import make_generic_system
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import RandomPolicy
from repro.sim.workload import (
    BankAccountKind,
    CounterKind,
    MapKind,
    QueueKind,
    RegisterKind,
    SetKind,
    WorkloadConfig,
    generate_workload,
)
from repro.undo.logging import UndoLoggingObject

KINDS = [
    ("counter", CounterKind()),
    ("set", SetKind()),
    ("bank", BankAccountKind()),
    ("queue", QueueKind()),
    ("register", RegisterKind()),
    ("map", MapKind()),
]
ABORT_RATES = pick([0.0, 0.2], [0.0])
SEEDS = pick(range(4), range(1))


def run_sweep():
    rows = []
    for label, kind in KINDS:
        for abort_rate in ABORT_RATES:
            violations = committed = blocked = 0
            for seed in SEEDS:
                config = WorkloadConfig(
                    seed=seed, top_level=6, objects=2, max_depth=2, kind=kind
                )
                system_type, programs = generate_workload(config)
                system = make_generic_system(
                    system_type, programs, UndoLoggingObject
                )
                policy = AbortInjector(
                    RandomPolicy(seed), abort_rate=abort_rate, seed=seed
                )
                result = run_system(
                    system, policy, system_type, max_steps=10_000,
                    collect_blocking=True, resolve_deadlocks=True,
                )
                certificate = certify(result.behavior, system_type)
                if not (certificate.certified and not certificate.witness_problems):
                    violations += 1
                committed += result.stats.top_level_committed
                blocked += result.stats.blocked_access_steps
            rows.append(
                (label, abort_rate, len(SEEDS), committed, blocked, violations)
            )
    return rows


@pytest.mark.benchmark(group="e3")
def test_e3_undo_theorem25(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        "E3: Theorem 25 — undo logging over arbitrary data types",
        ["type", "abort%", "runs", "committed", "blocked", "violations"],
        rows,
    )
    assert all(row[-1] == 0 for row in rows)
    if not SMOKE:
        # commutativity shape: the counter blocks less than the queue
        blocked = {row[0]: row[4] for row in rows if row[1] == 0.0}
        assert blocked["counter"] <= blocked["queue"]
