"""The serial scheduler automaton (Section 2.2.3).

The serial scheduler runs the transaction tree depth-first: siblings
never overlap, a transaction commits only after every child whose
creation it requested has completed, and a transaction can be aborted
only *before* it is created (so aborted transactions never perform any
step).  Completion results may be reported to the parent at any later
time.

``T0`` is treated as created from the start (it models the environment);
no ``CREATE(T0)`` action is ever emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, FrozenSet, Iterator, Tuple

from ..automata.base import IOAutomaton
from ..core.actions import (
    Abort,
    Action,
    Commit,
    Create,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from ..core.names import ROOT, TransactionName

__all__ = ["SerialSchedulerState", "SerialScheduler"]


@dataclass(frozen=True)
class SerialSchedulerState:
    """Immutable serial scheduler state; sets are frozensets, values a mapping."""

    create_requested: FrozenSet[TransactionName] = frozenset()
    created: FrozenSet[TransactionName] = frozenset({ROOT})
    committed: FrozenSet[TransactionName] = frozenset()
    aborted: FrozenSet[TransactionName] = frozenset()
    commit_values: Tuple[Tuple[TransactionName, Any], ...] = ()
    reported: FrozenSet[TransactionName] = frozenset()

    def completed(self, transaction: TransactionName) -> bool:
        return transaction in self.committed or transaction in self.aborted

    def value_of(self, transaction: TransactionName) -> Any:
        for name, value in self.commit_values:
            if name == transaction:
                return value
        raise KeyError(transaction)

    def commit_requested(self, transaction: TransactionName) -> bool:
        return any(name == transaction for name, _ in self.commit_values)


class SerialScheduler(IOAutomaton):
    """The fully specified serial scheduler automaton."""

    name = "serial-scheduler"

    def is_input(self, action: Action) -> bool:
        return isinstance(action, (RequestCreate, RequestCommit))

    def is_output(self, action: Action) -> bool:
        return isinstance(action, (Create, Commit, Abort, ReportCommit, ReportAbort))

    def initial_state(self) -> SerialSchedulerState:
        return SerialSchedulerState()

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _has_active_sibling(
        state: SerialSchedulerState, transaction: TransactionName
    ) -> bool:
        parent = transaction.parent
        for other in state.created:
            if other == transaction or other.is_root:
                continue
            if other.parent == parent and not state.completed(other):
                return True
        return False

    @staticmethod
    def _children_requested(
        state: SerialSchedulerState, transaction: TransactionName
    ) -> Iterator[TransactionName]:
        for child in state.create_requested:
            if not child.is_root and child.parent == transaction:
                yield child

    # -- transitions ----------------------------------------------------------

    def enabled(self, state: SerialSchedulerState, action: Action) -> bool:
        if self.is_input(action):
            return True
        if isinstance(action, Create):
            transaction = action.transaction
            return (
                transaction in state.create_requested
                and transaction not in state.created
                and not state.completed(transaction)
                and not self._has_active_sibling(state, transaction)
            )
        if isinstance(action, Commit):
            transaction = action.transaction
            return (
                state.commit_requested(transaction)
                and not state.completed(transaction)
                and all(
                    state.completed(child)
                    for child in self._children_requested(state, transaction)
                )
            )
        if isinstance(action, Abort):
            transaction = action.transaction
            return (
                transaction in state.create_requested
                and transaction not in state.created
                and not state.completed(transaction)
            )
        if isinstance(action, ReportCommit):
            transaction = action.transaction
            return (
                transaction in state.committed
                and transaction not in state.reported
                and state.value_of(transaction) == action.value
            )
        if isinstance(action, ReportAbort):
            transaction = action.transaction
            return transaction in state.aborted and transaction not in state.reported
        return False

    def effect(
        self, state: SerialSchedulerState, action: Action
    ) -> SerialSchedulerState:
        if isinstance(action, RequestCreate):
            return replace(
                state, create_requested=state.create_requested | {action.transaction}
            )
        if isinstance(action, RequestCommit):
            if state.commit_requested(action.transaction):
                return state
            return replace(
                state,
                commit_values=state.commit_values
                + ((action.transaction, action.value),),
            )
        if isinstance(action, Create):
            return replace(state, created=state.created | {action.transaction})
        if isinstance(action, Commit):
            return replace(state, committed=state.committed | {action.transaction})
        if isinstance(action, Abort):
            return replace(state, aborted=state.aborted | {action.transaction})
        if isinstance(action, (ReportCommit, ReportAbort)):
            return replace(state, reported=state.reported | {action.transaction})
        raise ValueError(f"{self.name}: {action} not in signature")

    def enabled_outputs(self, state: SerialSchedulerState) -> Iterator[Action]:
        for transaction in sorted(state.create_requested):
            create = Create(transaction)
            if self.enabled(state, create):
                yield create
            abort = Abort(transaction)
            if self.enabled(state, abort):
                yield abort
        for transaction, value in state.commit_values:
            commit = Commit(transaction)
            if self.enabled(state, commit):
                yield commit
        for transaction in sorted(state.committed):
            report = ReportCommit(transaction, state.value_of(transaction))
            if self.enabled(state, report):
                yield report
        for transaction in sorted(state.aborted):
            report_abort = ReportAbort(transaction)
            if self.enabled(state, report_abort):
                yield report_abort
