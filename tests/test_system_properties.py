"""System-level property tests: random configurations, one big invariant.

Whatever the workload shape, data type, algorithm, scheduling policy,
fault rate or stopping point, the behavior of a generic system built
from verified objects must satisfy: simple-behavior constraints, the
Theorem 8/19 hypotheses, witness validation, and suitability of the
derived order.  This is the paper's whole point compressed into one
hypothesis property.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.correctness import certify
from repro.core.events import serial_projection
from repro.core.names import ROOT
from repro.core.serialization_graph import build_serialization_graph
from repro.core.sibling_order import is_suitable
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.locking.read_update import ReadUpdateLockingObject
from repro.serial.simple_db import check_simple_behavior
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import EagerInformPolicy, RandomPolicy, RoundRobinPolicy
from repro.sim.workload import (
    BankAccountKind,
    CounterKind,
    MapKind,
    QueueKind,
    RWKind,
    SetKind,
    WorkloadConfig,
    generate_workload,
)
from repro.undo.logging import UndoLoggingObject

ALGORITHMS = [
    ("moss", MossRWLockingObject, [RWKind()]),
    (
        "undo",
        UndoLoggingObject,
        [CounterKind(), SetKind(), BankAccountKind(), QueueKind(), RWKind(),
         MapKind()],
    ),
    ("read-update", ReadUpdateLockingObject, [CounterKind(), SetKind()]),
]


def build_and_run(seed: int, algo_index: int, policy_index: int, abort_rate: float,
                  max_steps: int):
    name, factory, kinds = ALGORITHMS[algo_index % len(ALGORITHMS)]
    kind = kinds[seed % len(kinds)]
    config = WorkloadConfig(
        seed=seed,
        top_level=3 + seed % 3,
        objects=2 + seed % 2,
        max_depth=1 + seed % 3,
        kind=kind,
    )
    system_type, programs = generate_workload(config)
    system = make_generic_system(system_type, programs, factory)
    policies = [
        EagerInformPolicy(seed=seed),
        RandomPolicy(seed),
        RoundRobinPolicy(),
    ]
    policy = policies[policy_index % len(policies)]
    if abort_rate > 0:
        policy = AbortInjector(policy, abort_rate=abort_rate, seed=seed)
    result = run_system(
        system, policy, system_type, max_steps=max_steps, resolve_deadlocks=True
    )
    return result, system_type


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 5000),
    algo=st.integers(0, 2),
    policy=st.integers(0, 2),
    abort_rate=st.sampled_from([0.0, 0.0, 0.1, 0.4]),
    max_steps=st.sampled_from([50, 200, 5000]),
)
def test_grand_invariant(seed, algo, policy, abort_rate, max_steps):
    result, system_type = build_and_run(seed, algo, policy, abort_rate, max_steps)
    serial = serial_projection(result.behavior)
    # 1. simple-behavior constraints
    assert check_simple_behavior(serial, system_type) == []
    # 2. the Theorem 8/19 certificate, witness included
    certificate = certify(result.behavior, system_type)
    assert certificate.certified, certificate.explain()
    assert not certificate.witness_problems, certificate.witness_problems
    # 3. the derived order is suitable (Theorem 2 hypothesis 1+2)
    if certificate.order is not None:
        assert is_suitable(certificate.order, serial, ROOT)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 5000), cut_fraction=st.floats(0.1, 0.9))
def test_any_prefix_of_a_moss_run_is_certified(seed, cut_fraction):
    """Theorem 17 quantifies over *all* finite behaviors — so any prefix
    of a run (a behavior the system could have stopped at) must certify."""
    result, system_type = build_and_run(seed, 0, 0, 0.0, 5000)
    cut = int(len(result.behavior) * cut_fraction)
    certificate = certify(result.behavior[:cut], system_type)
    assert certificate.certified, (cut, certificate.explain())
