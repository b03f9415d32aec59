"""Certificates and simulations do not depend on ``PYTHONHASHSEED``.

Both graph builders seed their sibling-group nodes in transaction-name
order, so the cycle a rejection reports (and ``repro audit``/``explain``
print) and the sibling order behind a witness are the same in every
interpreter.  The composition routes each simulated step through an
index keyed by transaction and object names, and keeps the participants
in component order, so a seeded run produces the same behavior in every
interpreter.  Set iteration order varies with the hash seed, so this
suite certifies the same contended behaviors, and runs the same seeded
Moss and undo simulations, in two fresh interpreters with different
seeds and compares what they report.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = """
import hashlib

from repro.core.correctness import certify
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import EagerInformPolicy, RandomPolicy
from repro.sim.workload import CounterKind, RWKind, WorkloadConfig, generate_workload
from repro.undo.logging import UndoLoggingObject
from conftest import reference_certify
from test_online import random_contended_behavior

for seed in range(40):
    behavior, system = random_contended_behavior(seed)
    certificate = certify(behavior, system)
    print(seed, "certify", certificate.cycle)
    print(seed, "witness", certificate.witness)
    print(seed, "reference", reference_certify(behavior, system).cycle)

POLICIES = {
    "eager": lambda seed: EagerInformPolicy(seed=seed),
    "abort-injector": lambda seed: AbortInjector(
        RandomPolicy(seed), abort_rate=0.05, seed=seed
    ),
}
ALGORITHMS = {
    "moss": (MossRWLockingObject, RWKind),
    "undo": (UndoLoggingObject, CounterKind),
}
for algorithm, (factory, kind) in ALGORITHMS.items():
    for policy, make_policy in POLICIES.items():
        for seed in range(3):
            system_type, programs = generate_workload(
                WorkloadConfig(seed=seed, top_level=12, objects=4, kind=kind())
            )
            system = make_generic_system(system_type, programs, factory)
            result = run_system(
                system, make_policy(seed), system_type, resolve_deadlocks=True
            )
            digest = hashlib.sha256(repr(result.behavior).encode()).hexdigest()
            print(seed, "simulate", algorithm, policy, result.stats.steps, digest)
"""


def certify_under(hash_seed):
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))),
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def test_cycles_and_witnesses_do_not_depend_on_the_hash_seed():
    first, second = certify_under(0), certify_under(23)
    simulations = [line for line in first if " simulate " in line]
    assert len(first) - len(simulations) == 40 * 3
    # the sweep must report cycles, or it proves nothing about them
    cycles = [line for line in first if " certify " in line]
    assert sum(not line.endswith(" None") for line in cycles) >= 20
    # 2 algorithms x 2 policies x 3 seeds, each a distinct non-empty run
    assert len(simulations) == 12
    assert len({line.split()[-1] for line in simulations}) == 12
    assert all(int(line.split()[-2]) > 50 for line in simulations)
    assert first == second
