"""Direct tests of Lemma 14 / Proposition 15 on simulated Moss runs.

Lemma 14: in a generic system built from ``M1_X`` objects, every
REQUEST_COMMIT for a read access occurring in ``visible(beta, T0)`` is
*current* and *safe* in ``serial(beta)``.  Proposition 15 then gives
appropriate return values via Lemma 6.  We check the per-event
conditions directly on driver runs rather than only the end-to-end
certificate.
"""

import pytest

from repro.core.actions import RequestCommit
from repro.core.events import StatusIndex, serial_projection
from repro.core.names import ROOT
from repro.core.return_values import (
    check_current_and_safe,
    has_appropriate_return_values,
    is_current,
    is_safe,
)
from repro.core.rw_semantics import is_read_access
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import EagerInformPolicy, RandomPolicy
from repro.sim.workload import WorkloadConfig, generate_workload


def moss_serial(seed, abort_rate=0.0):
    system_type, programs = generate_workload(
        WorkloadConfig(seed=seed, top_level=5, objects=3, max_depth=2)
    )
    system = make_generic_system(system_type, programs, MossRWLockingObject)
    policy = (
        AbortInjector(RandomPolicy(seed), abort_rate=abort_rate, seed=seed)
        if abort_rate
        else EagerInformPolicy(seed=seed)
    )
    result = run_system(
        system, policy, system_type, max_steps=8000, resolve_deadlocks=True
    )
    return serial_projection(result.behavior), system_type


@pytest.mark.parametrize("seed", range(6))
def test_lemma14_visible_reads_current_and_safe(seed):
    serial, system_type = moss_serial(seed)
    index = StatusIndex(serial)
    checked = 0
    for position, action in enumerate(serial):
        if not isinstance(action, RequestCommit):
            continue
        name = action.transaction
        if not is_read_access(name, system_type):
            continue
        if not index.is_visible(name, ROOT):
            continue
        assert is_current(serial, position, system_type), (seed, action)
        assert is_safe(serial, position, system_type), (seed, action)
        checked += 1
    # the check must actually have bitten on something
    assert checked > 0 or not any(
        is_read_access(a.transaction, system_type)
        for a in serial
        if isinstance(a, RequestCommit)
    )


@pytest.mark.parametrize("seed", range(4))
def test_lemma14_under_aborts(seed):
    serial, system_type = moss_serial(seed, abort_rate=0.2)
    assert check_current_and_safe(serial, system_type) == []


@pytest.mark.parametrize("seed", range(4))
def test_proposition15_arv(seed):
    serial, system_type = moss_serial(seed, abort_rate=0.1)
    assert has_appropriate_return_values(serial, system_type)
