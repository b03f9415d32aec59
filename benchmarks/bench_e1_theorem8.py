"""E1 — Theorem 8 validation (read/write objects).

For randomized nested workloads executed under Moss locking, every
produced simple behavior that passes the two hypotheses (appropriate
return values + acyclic SG) must be serially correct; on small
instances we confirm against the brute-force oracle.  Expected shape:
zero disagreements, zero witness failures, across the whole sweep.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import pick
from _tables import print_table

from repro.core.correctness import certify
from repro.core.oracle import oracle_serially_correct
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy, RandomPolicy
from repro.sim.workload import WorkloadConfig, generate_workload

SWEEP = pick(
    [
        # (top_level, objects, depth, seeds)
        (2, 2, 1, range(6)),
        (3, 2, 2, range(6)),
        (3, 3, 2, range(6)),
        (4, 4, 3, range(6)),
    ],
    [(2, 2, 1, range(2))],
)


def run_sweep(check_oracle: bool):
    rows = []
    for top_level, objects, depth, seeds in SWEEP:
        certified = witness_ok = oracle_agree = total = 0
        for seed in seeds:
            config = WorkloadConfig(
                seed=seed,
                top_level=top_level,
                objects=objects,
                max_depth=depth,
                max_calls=2,
            )
            system_type, programs = generate_workload(config)
            system = make_generic_system(system_type, programs, MossRWLockingObject)
            policy = RandomPolicy(seed) if seed % 2 else EagerInformPolicy(seed=seed)
            result = run_system(
                system, policy, system_type, max_steps=4000, resolve_deadlocks=True
            )
            certificate = certify(result.behavior, system_type)
            total += 1
            if certificate.certified:
                certified += 1
                if not certificate.witness_problems:
                    witness_ok += 1
                small = top_level <= 3
                if check_oracle and small:
                    if oracle_serially_correct(
                        result.behavior, system_type, max_orders=3000
                    ):
                        oracle_agree += 1
                else:
                    oracle_agree += 1
        rows.append(
            (top_level, objects, depth, total, certified, witness_ok, oracle_agree)
        )
    return rows


@pytest.mark.benchmark(group="e1")
def test_e1_theorem8_validation(benchmark):
    rows = benchmark.pedantic(run_sweep, args=(True,), rounds=1, iterations=1)
    print_table(
        "E1: Theorem 8 — certified runs carry validated witnesses and agree "
        "with the oracle",
        ["top", "objs", "depth", "runs", "certified", "witness ok", "oracle ok"],
        rows,
    )
    for top, objs, depth, total, certified, witness_ok, oracle_agree in rows:
        assert certified == total, "a Moss run failed the Theorem 8 hypotheses"
        assert witness_ok == certified
        assert oracle_agree == certified
