"""The docs/TUTORIAL.md walkthrough, runnable: a user-defined data type.

Defines the high-water-mark type, verifies its commutativity table
definitionally, runs it under undo logging next to an untouched RW
object, and certifies the composed system — the modular workflow the
paper's introduction motivates.
"""

from dataclasses import dataclass
from typing import Any, Tuple

import pytest

from repro.core.correctness import certify
from repro.core.names import ROOT, ObjectName
from repro.core.rw_semantics import RWSpec
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.programs import (
    TransactionProgram,
    op,
    read,
    seq,
    sub,
    system_type_for,
)
from repro.spec.commutativity import (
    exhaustive_prefixes,
    find_commutativity_counterexample,
)
from repro.spec.datatype import DataType
from repro.undo.logging import UndoLoggingObject


@dataclass(frozen=True)
class Propose:
    value: int

    def __str__(self) -> str:
        return f"propose({self.value})"


@dataclass(frozen=True)
class Peak:
    def __str__(self) -> str:
        return "peak"


class HighWaterMark(DataType):
    type_name = "high-water-mark"

    def __init__(self, initial: int = 0) -> None:
        self._initial = initial

    @property
    def initial(self) -> int:
        return self._initial

    def apply(self, state: int, operation: Any) -> Tuple[int, Any]:
        if isinstance(operation, Propose):
            return max(state, operation.value), "OK"
        if isinstance(operation, Peak):
            return state, state
        raise TypeError(operation)

    def is_read_only(self, operation: Any) -> bool:
        return isinstance(operation, Peak)

    def commutes_backward(self, op1, v1, op2, v2) -> bool:
        if isinstance(op1, Peak) and isinstance(op2, Peak):
            return True
        if isinstance(op1, Propose) and isinstance(op2, Propose):
            return True
        peak_value = v1 if isinstance(op1, Peak) else v2
        proposal = op1 if isinstance(op1, Propose) else op2
        return proposal.value < peak_value


class BrokenHighWaterMark(HighWaterMark):
    """Wrongly claims Peak always commutes with Propose."""

    def commutes_backward(self, op1, v1, op2, v2) -> bool:
        return True


OPERATIONS = [Propose(1), Propose(2), Peak()]


class TestCommutativityTable:
    def test_claimed_table_is_correct(self):
        hwm = HighWaterMark()
        prefixes = exhaustive_prefixes(hwm, OPERATIONS, 3)
        for prefix in prefixes:
            state = hwm.replay(prefix)
            for first_op in OPERATIONS:
                mid, v1 = hwm.apply(state, first_op)
                for second_op in OPERATIONS:
                    _, v2 = hwm.apply(mid, second_op)
                    problem = find_commutativity_counterexample(
                        hwm, (first_op, v1), (second_op, v2), prefixes
                    )
                    assert problem is None, str(problem)

    def test_overclaiming_table_is_caught(self):
        broken = BrokenHighWaterMark()
        prefixes = exhaustive_prefixes(broken, OPERATIONS, 3)
        # peak returning 0 then propose(2): swapping makes the peak illegal
        problem = find_commutativity_counterexample(
            broken, (Peak(), 0), (Propose(2), "OK"), prefixes
        )
        assert problem is not None
        assert problem.claimed_commutes

    def test_absorbed_proposal_commutes_with_peak(self):
        hwm = HighWaterMark(initial=5)
        assert hwm.commutes_backward(Peak(), 5, Propose(3), "OK")
        # the boundary case: equal value does NOT commute (strict bound)
        assert not hwm.commutes_backward(Peak(), 5, Propose(5), "OK")
        assert not hwm.commutes_backward(Peak(), 5, Propose(9), "OK")


class TestComposedSystem:
    def _build(self):
        hwm_obj, log_obj = ObjectName("hwm"), ObjectName("log")
        clients = tuple(
            sub(seq(op(hwm_obj, Propose(i + 1), "propose")), f"sensor{i}")
            for i in range(8)
        ) + (
            sub(seq(op(hwm_obj, Peak(), "peek"), read(log_obj, "r")),
                "monitor"),
        )
        programs = {ROOT: TransactionProgram(clients, sequential=False)}
        system_type = system_type_for(
            {hwm_obj: HighWaterMark(), log_obj: RWSpec(initial="boot")}, programs
        )
        system = make_generic_system(
            system_type,
            programs,
            {hwm_obj: UndoLoggingObject, log_obj: MossRWLockingObject},
        )
        return system, system_type

    def test_run_certifies(self):
        system, system_type = self._build()
        result = run_system(
            system,
            EagerInformPolicy(seed=1),
            system_type,
            max_steps=8000,
            resolve_deadlocks=True,
        )
        assert result.stats.quiescent
        assert result.stats.top_level_committed == 9
        certificate = certify(result.behavior, system_type)
        assert certificate.certified, certificate.explain()
        assert not certificate.witness_problems

    def test_proposals_run_concurrently(self):
        # all proposals can be answered while none of their parents
        # committed — they commute
        from repro.core.actions import Create, RequestCommit
        from repro.core.names import Access, SystemType, TransactionName

        hwm_obj = ObjectName("hwm")
        system_type = SystemType({hwm_obj: HighWaterMark()})
        accesses = []
        for i in range(4):
            name = TransactionName((f"t{i}", "p"))
            system_type.register_access(name, Access(hwm_obj, Propose(i + 1)))
            accesses.append(name)
        undo = UndoLoggingObject(hwm_obj, system_type)
        state = undo.initial_state()
        for name in accesses:
            state = undo.effect(state, Create(name))
            response = RequestCommit(name, "OK")
            assert undo.enabled(state, response), name
            state = undo.effect(state, response)
