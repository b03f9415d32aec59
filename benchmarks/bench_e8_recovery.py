"""E8 — recovery under abort storms.

Sweeps the per-step abort-injection rate from 0 to 0.8 for both
algorithms and checks that (a) every run remains serially correct, and
(b) recovery actually erases aborted work: replaying only the visible
operations at each object yields a legal serial behavior — the books
always balance.  Expected shape: zero violations at every abort rate,
with committed work decreasing as the rate rises.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.correctness import certify
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import RandomPolicy
from repro.sim.workload import CounterKind, WorkloadConfig, generate_workload
from repro.undo.logging import UndoLoggingObject

RATES = pick([0.0, 0.1, 0.3, 0.5, 0.8], [0.0, 0.5])
SEEDS = pick(range(3), range(1))


def run_sweep():
    rows = []
    for label, factory, kind in [
        ("moss/rw", MossRWLockingObject, None),
        ("undo/counter", UndoLoggingObject, CounterKind()),
    ]:
        for rate in RATES:
            violations = committed = aborted = 0
            for seed in SEEDS:
                config_kw = dict(seed=seed, top_level=6, objects=3, max_depth=2)
                if kind is not None:
                    config_kw["kind"] = kind
                system_type, programs = generate_workload(
                    WorkloadConfig(**config_kw)
                )
                system = make_generic_system(system_type, programs, factory)
                policy = AbortInjector(RandomPolicy(seed), abort_rate=rate, seed=seed)
                result = run_system(
                    system, policy, system_type, max_steps=10_000,
                    resolve_deadlocks=True,
                )
                certificate = certify(result.behavior, system_type)
                ok = certificate.certified and not certificate.witness_problems
                if not ok:
                    violations += 1
                committed += result.stats.top_level_committed
                aborted += result.stats.aborted
            rows.append((label, rate, len(SEEDS), committed, aborted, violations))
    return rows


@pytest.mark.benchmark(group="e8")
def test_e8_recovery_abort_storm(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        "E8: recovery under abort storms (certified = ARV + acyclic SG + witness)",
        ["algorithm", "abort rate", "runs", "committed", "aborted", "violations"],
        rows,
    )
    assert all(row[-1] == 0 for row in rows)
    if not SMOKE:
        for label in ("moss/rw", "undo/counter"):
            series = [row for row in rows if row[0] == label]
            assert series[0][3] >= series[-1][3], (
                "committed work should not grow with aborts"
            )
