"""E12 — why the graph test matters: polynomial check vs exponential search.

The serialization-graph condition can be checked in (low) polynomial
time; deciding serial correctness directly means searching over sibling
orders, whose count is a product of factorials.  This bench makes the
tractability gap concrete by certifying the *same* behaviors both ways
while scaling the number of concurrent top-level transactions.

Expected shape: certify() stays in the low milliseconds while the
oracle's order count (and time) explodes factorially — the practical
content of having a Theorem 8 at all.
"""

import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.correctness import certify
from repro.core.oracle import oracle_serially_correct
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.workload import WorkloadConfig, generate_workload


def make_behavior(top_level: int, seed: int = 1):
    system_type, programs = generate_workload(
        WorkloadConfig(
            seed=seed, top_level=top_level, objects=2, max_depth=1, max_calls=2
        )
    )
    system = make_generic_system(system_type, programs, MossRWLockingObject)
    result = run_system(
        system,
        EagerInformPolicy(seed=seed),
        system_type,
        max_steps=10_000,
        resolve_deadlocks=True,
    )
    return result.behavior, system_type


def run_comparison():
    rows = []
    for top_level in pick((2, 3, 4, 5, 6), (2, 3)):
        behavior, system_type = make_behavior(top_level)

        start = time.perf_counter()
        certificate = certify(behavior, system_type, construct_witness=False)
        graph_ms = (time.perf_counter() - start) * 1e3

        start = time.perf_counter()
        verdict = oracle_serially_correct(behavior, system_type, max_orders=250_000)
        oracle_ms = (time.perf_counter() - start) * 1e3

        assert certificate.certified and bool(verdict)
        rows.append(
            (
                top_level,
                f"{graph_ms:.2f}",
                verdict.orders_tried,
                f"{oracle_ms:.2f}",
                f"{oracle_ms / max(graph_ms, 1e-9):.1f}x",
            )
        )
    return rows


@pytest.mark.benchmark(group="e12")
def test_e12_graph_test_vs_oracle_search(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        "E12: Theorem 8 check vs direct witness search (same certified behaviors)",
        ["top-level txns", "SG test (ms)", "orders tried", "oracle (ms)", "ratio"],
        rows,
    )
    # the oracle workload grows with the factorial structure; the graph
    # test must stay flat.  Note: the oracle stops at the FIRST witness,
    # so 'orders tried' understates the worst case (a rejection would
    # enumerate everything).
    if not SMOKE:
        assert float(rows[-1][1]) < 50.0
