"""E10 — the multiversion boundary of the serialization-graph technique.

The paper (Section 1, Section 7) argues that its user-view correctness
definition covers multiversion algorithms while graph techniques built
on single-version conflict order do not.  We run the MVTO extension
(`repro.extensions.mvto`) and measure how the Theorem 8 test fares on
its behaviors, with the brute-force oracle as ground truth.

Expected shape: every run is serially correct (oracle), the SG test
never accepts an incorrect behavior, and a *nonzero* fraction of the
correct behaviors is rejected — the stale-read phenomenon that
motivated the multiversion extensions of the theory ([1] in the paper).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.correctness import certify
from repro.core.oracle import oracle_serially_correct
from repro.extensions.mvto import MVTORWObject
from repro.generic.system import make_generic_system
from repro.sim.driver import run_system
from repro.sim.policies import RandomPolicy
from repro.sim.workload import WorkloadConfig, generate_workload


def run_sweep(samples: int):
    certified = rejected_correct = rejected_incorrect = oracle_giveups = 0
    for seed in range(samples):
        system_type, programs = generate_workload(
            WorkloadConfig(
                seed=seed, top_level=3, objects=2, max_depth=1, max_calls=2
            )
        )
        system = make_generic_system(system_type, programs, MVTORWObject)
        result = run_system(
            system,
            RandomPolicy(seed),
            system_type,
            max_steps=4000,
            resolve_deadlocks=True,
        )
        certificate = certify(result.behavior, system_type,
                              construct_witness=False)
        if certificate.certified:
            certified += 1
            continue
        verdict = oracle_serially_correct(
            result.behavior, system_type, max_orders=3000
        )
        if verdict:
            rejected_correct += 1
        elif verdict.truncated:
            oracle_giveups += 1
        else:
            rejected_incorrect += 1
    return certified, rejected_correct, rejected_incorrect, oracle_giveups


@pytest.mark.benchmark(group="e10")
def test_e10_multiversion_boundary(benchmark):
    samples = pick(60, 8)
    certified, rejected_correct, rejected_incorrect, giveups = benchmark.pedantic(
        run_sweep, args=(samples,), rounds=1, iterations=1
    )
    print_table(
        "E10: MVTO behaviors vs the (single-version) SG test",
        ["verdict", "count", "fraction"],
        [
            ("certified by SG test", certified, f"{certified / samples:.2f}"),
            (
                "correct but rejected (multiversion gap)",
                rejected_correct,
                f"{rejected_correct / samples:.2f}",
            ),
            (
                "rejected and genuinely incorrect",
                rejected_incorrect,
                f"{rejected_incorrect / samples:.2f}",
            ),
            ("oracle budget exhausted", giveups, f"{giveups / samples:.2f}"),
        ],
    )
    assert rejected_incorrect == 0, "MVTO produced an incorrect behavior"
    if not SMOKE:  # the gap is statistical; it needs the full sample size
        assert rejected_correct > 0, "expected the multiversion gap to appear"
        assert certified > 0
