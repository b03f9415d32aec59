"""Tests for the user-facing algorithm validation battery."""

from dataclasses import dataclass
from typing import Any

import pytest

from repro import (
    CounterKind,
    MapKind,
    MossRWLockingObject,
    ReadUpdateLockingObject,
    RWKind,
    UndoLoggingObject,
)
from repro.core.actions import Create, InformAbort, RequestCommit
from repro.core.rw_semantics import OK, WriteOp
from repro.extensions.mvto import MVTORWObject
from repro.generic.objects import GenericObject, ObjectState
from repro.generic.validation import recovery_problem, validate_object_algorithm


class TestShippedAlgorithmsPass:
    def test_moss(self):
        report = validate_object_algorithm(
            MossRWLockingObject, RWKind(), seeds=range(3)
        )
        assert report.passed, report.summary()
        assert report.completion_order_always_held

    def test_undo_logging(self):
        report = validate_object_algorithm(
            UndoLoggingObject, CounterKind(), seeds=range(3)
        )
        assert report.passed, report.summary()
        assert report.completion_order_always_held

    def test_read_update(self):
        report = validate_object_algorithm(
            ReadUpdateLockingObject, CounterKind(), seeds=range(3)
        )
        assert report.passed, report.summary()

    def test_summary_text(self):
        report = validate_object_algorithm(
            MossRWLockingObject, RWKind(), seeds=range(2), abort_rates=(0.0,)
        )
        assert "PASSED" in report.summary()
        assert report.failures() == []

    def test_oracle_out_of_budget_is_inconclusive_not_failed(self):
        """Seed 5 certifies with a valid witness, but the oracle needs
        10,369 orders to find a serial witness: with the default budget
        of 2,000 the search is truncated, which is no disagreement."""
        report = validate_object_algorithm(
            MossRWLockingObject, RWKind(), seeds=[5], abort_rates=(0.0,)
        )
        assert report.passed, report.summary()
        [outcome] = report.outcomes
        assert outcome.certified and outcome.witness_ok
        assert outcome.oracle_ok is None and outcome.oracle_truncated
        assert "1 inconclusive" in report.summary()
        ample = validate_object_algorithm(
            MossRWLockingObject, RWKind(), seeds=[5], abort_rates=(0.0,),
            oracle_budget=20_000,
        )
        assert ample.outcomes[0].oracle_ok is True
        assert not ample.outcomes[0].oracle_truncated
        assert "0 inconclusive" in ample.summary()


class TestMVTOIsFlaggedInformationally:
    def test_mvto_fails_certification_but_not_oracle(self):
        """MVTO is serially correct, so the oracle never contradicts it —
        but the single-version certifier rejects some runs, so the battery
        reports failures (this is the E10 boundary, surfaced per-run)."""
        report = validate_object_algorithm(
            MVTORWObject, RWKind(), seeds=range(6), abort_rates=(0.0,),
            max_depth=1,
        )
        rejected = [o for o in report.outcomes if not o.certified]
        # some seeds interleave innocuously and certify; at least one must
        # exhibit the multiversion gap
        assert rejected, "expected MVTO to trip the single-version test"
        # and no run may be *incorrect*: the oracle never returns False
        assert all(o.oracle_ok is not False for o in report.outcomes)


@dataclass(frozen=True)
class YoloState(ObjectState):
    data: Any = None


class YoloObject(GenericObject):
    """No concurrency control, no recovery: reads see raw writes."""

    def __init__(self, obj, system_type):
        super().__init__(obj, system_type)
        self.name = f"YOLO_{obj}"
        self.initial = system_type.spec(obj).initial

    def initial_state(self):
        return YoloState(data=self.initial)

    def enabled(self, state, action):
        if self.is_input(action):
            return True
        if isinstance(action, RequestCommit):
            access = action.transaction
            return access in state.waiting and (
                action.value == self.response(state)(access)
            )
        return False

    def effect(self, state, action):
        if isinstance(action, Create):
            return self.create_access(state, action.transaction)
        if isinstance(action, RequestCommit):
            op = self.system_type.access(action.transaction).op
            data = op.data if isinstance(op, WriteOp) else state.data
            return self.answer_access(state, action.transaction, data=data)
        return state  # ignores informs entirely: no undo!

    def response(self, state):
        def respond(access):
            op = self.system_type.access(access).op
            return OK if isinstance(op, WriteOp) else state.data

        return respond


class MossWithoutRecovery(MossRWLockingObject):
    """Moss locking that ignores INFORM_ABORT: an aborted writer keeps
    its lock and its value for good."""

    def effect(self, state, action):
        if isinstance(action, InformAbort):
            return state
        return super().effect(state, action)


class UndoWithoutRecovery(UndoLoggingObject):
    """Undo logging that ignores INFORM_ABORT: an aborted operation
    stays in the log for good."""

    def effect(self, state, action):
        if isinstance(action, InformAbort):
            return state
        return super().effect(state, action)


class TestBrokenAlgorithmIsCaught:
    def test_dirty_read_object_fails(self):
        """An object that ignores locking entirely (answers each created
        access at once with the latest write, never undoes) must fail
        the default battery: its runs form SG cycles, and the recovery
        probe sees a dirty read."""
        report = validate_object_algorithm(YoloObject, RWKind())
        assert not report.passed
        cycles = [o for o in report.failures() if "SG cycle" in o.detail]
        assert cycles, report.summary()
        assert "returns" in report.recovery, report.recovery

    @pytest.mark.parametrize(
        "factory, kind",
        [(MossWithoutRecovery, RWKind()), (UndoWithoutRecovery, CounterKind())],
        ids=["moss", "undo"],
    )
    def test_object_without_recovery_fails(self, factory, kind):
        """An aborted write that is never undone blocks every later
        access; the runs stay safe, and the recovery probe fails."""
        report = validate_object_algorithm(factory, kind, seeds=range(2))
        assert not report.passed
        assert "blocked" in report.recovery, report.recovery
        assert "recovery: after T0/w aborted" in report.summary()


@pytest.mark.parametrize(
    "factory, kind",
    [
        (MossRWLockingObject, RWKind()),
        (UndoLoggingObject, CounterKind()),
        (UndoLoggingObject, MapKind()),
        (ReadUpdateLockingObject, CounterKind()),
        (MVTORWObject, RWKind()),
    ],
    ids=["moss", "undo-counter", "undo-map", "read-update", "mvto"],
)
def test_shipped_algorithms_recover(factory, kind):
    assert recovery_problem(factory, kind) is None
