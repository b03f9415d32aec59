"""Cross-validation of the oracle against exhaustive serial enumeration.

The brute-force oracle decides serial correctness by searching sibling
orders and weaving witnesses.  On systems small enough to enumerate
*every* serial behavior outright, we can check it against the paper's
actual definition: ``beta`` is serially correct for ``T0`` iff some
serial behavior ``gamma`` has ``gamma | T0 == beta | T0``.
"""

import pytest

from repro.core.events import project_transaction, serial_projection
from repro.core.names import ROOT, ObjectName
from repro.core.oracle import oracle_serially_correct
from repro.core.rw_semantics import RWSpec
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.serial.system import enumerate_serial_behaviors, make_serial_system
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy, RandomPolicy
from repro.sim.programs import TransactionProgram, read, seq, sub, system_type_for, write

from conftest import T

X = ObjectName("x")


def tiny_world():
    t1 = seq(write(X, 1, "w"), result="one")
    def t2_result(outcomes):
        outcome = outcomes["r"]
        return ("saw", outcome[1]) if outcome[0] == "commit" else ("saw", None)

    t2 = seq(read(X, "r"), result=t2_result)
    root = TransactionProgram((sub(t1, "t1"), sub(t2, "t2")), sequential=False)
    programs = {ROOT: root}
    system_type = system_type_for({X: RWSpec(initial=0)}, programs)
    return system_type, programs


def definitionally_correct(behavior, system_type, programs, max_steps=40):
    """The textbook definition: exists serial gamma with gamma|T0 == beta|T0."""
    target = project_transaction(serial_projection(behavior), ROOT)
    serial_system = make_serial_system(system_type, programs)
    for gamma in enumerate_serial_behaviors(
        serial_system, max_steps=max_steps, max_behaviors=120_000
    ):
        if project_transaction(gamma, ROOT) == target:
            return True
    return False


class TestOracleCompleteness:
    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_agrees_with_definition_on_generic_runs(self, seed):
        system_type, programs = tiny_world()
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        policy = RandomPolicy(seed) if seed % 2 else EagerInformPolicy(seed=seed)
        result = run_system(
            system, policy, system_type, max_steps=2000, resolve_deadlocks=True
        )
        oracle = bool(oracle_serially_correct(result.behavior, system_type))
        definition = definitionally_correct(result.behavior, system_type, programs)
        assert oracle == definition, seed
        assert oracle  # Moss runs are correct (Theorem 17)

    def test_oracle_and_definition_reject_corrupted_run(self):
        from repro.core.actions import RequestCommit

        system_type, programs = tiny_world()
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, EagerInformPolicy(seed=1), system_type, resolve_deadlocks=True
        )
        # corrupt the reported read value end-to-end (request + report)
        corrupted = []
        for action in result.behavior:
            if (
                hasattr(action, "value")
                and getattr(action, "transaction", None) == T("t2", "r")
            ):
                corrupted.append(type(action)(action.transaction, 999))
            elif (
                hasattr(action, "value")
                and getattr(action, "transaction", None) == T("t2")
                and isinstance(action.value, tuple)
            ):
                corrupted.append(type(action)(action.transaction, ("saw", 999)))
            else:
                corrupted.append(action)
        corrupted = tuple(corrupted)
        assert not oracle_serially_correct(corrupted, system_type)
        assert not definitionally_correct(corrupted, system_type, programs)

    def test_definition_tracks_transaction_values(self):
        # gamma|T0 equality includes report values: a serial behavior in
        # which t2 saw a different value does not witness correctness.
        system_type, programs = tiny_world()
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, EagerInformPolicy(seed=3), system_type, resolve_deadlocks=True
        )
        # the run is correct and the definition confirms it
        assert definitionally_correct(result.behavior, system_type, programs)
