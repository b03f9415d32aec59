"""The simple database automaton and simple-behavior checks (Section 2.3.1).

The simple database embodies the constraints any reasonable transaction
processing system satisfies — creations and completions only after the
matching requests, no duplicate creations/completions/reports/responses —
while allowing arbitrary concurrency, completion order, and access
return values.  The Serializability Theorem and the serialization-graph
theorems quantify over its behaviors ("simple behaviors").

:func:`check_simple_behavior` is the sequence-level well-formedness
checker used to sanity-check inputs to the certifier;
:class:`SimpleDatabase` is the automaton form, whose behaviors the
generic system provably implements (tested, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, List, Sequence, Set, Tuple

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
    is_serial_action,
)
from ..core.names import SystemType, TransactionName

__all__ = [
    "SimpleDatabaseState",
    "SimpleDatabase",
    "check_simple_behavior",
    "make_simple_system",
]


@dataclass(frozen=True)
class SimpleDatabaseState:
    """Bookkeeping of requests, creations, completions, reports and responses."""

    create_requested: FrozenSet[TransactionName] = frozenset()
    created: FrozenSet[TransactionName] = frozenset()
    commit_requested: Tuple[Tuple[TransactionName, Any], ...] = ()
    committed: FrozenSet[TransactionName] = frozenset()
    aborted: FrozenSet[TransactionName] = frozenset()
    reported: FrozenSet[TransactionName] = frozenset()
    responded: FrozenSet[TransactionName] = frozenset()

    def completed(self, transaction: TransactionName) -> bool:
        return transaction in self.committed or transaction in self.aborted

    def commit_value(self, transaction: TransactionName) -> Any:
        for name, value in self.commit_requested:
            if name == transaction:
                return value
        raise KeyError(transaction)

    def has_commit_request(self, transaction: TransactionName) -> bool:
        return any(name == transaction for name, _ in self.commit_requested)


class SimpleDatabase(IOAutomaton):
    """The simple database automaton for a given system type."""

    name = "simple-database"

    def __init__(self, system_type: SystemType) -> None:
        self.system_type = system_type

    def is_input(self, action: Action) -> bool:
        if isinstance(action, RequestCreate):
            return True
        if isinstance(action, RequestCommit):
            return not self.system_type.is_access(action.transaction)
        return False

    def is_output(self, action: Action) -> bool:
        if isinstance(action, (Create, Commit, Abort, ReportCommit, ReportAbort)):
            return True
        if isinstance(action, RequestCommit):
            return self.system_type.is_access(action.transaction)
        return False

    def initial_state(self) -> SimpleDatabaseState:
        return SimpleDatabaseState()

    def enabled(self, state: SimpleDatabaseState, action: Action) -> bool:
        if self.is_input(action):
            return True
        if isinstance(action, Create):
            transaction = action.transaction
            return (
                transaction in state.create_requested
                and transaction not in state.created
            )
        if isinstance(action, RequestCommit):
            # Output form: responses to accesses, with an arbitrary value.
            transaction = action.transaction
            return (
                transaction in state.created
                and transaction not in state.responded
            )
        if isinstance(action, Commit):
            transaction = action.transaction
            return state.has_commit_request(transaction) and not state.completed(
                transaction
            )
        if isinstance(action, Abort):
            transaction = action.transaction
            return (
                transaction in state.create_requested
                and not state.completed(transaction)
            )
        if isinstance(action, ReportCommit):
            transaction = action.transaction
            return (
                transaction in state.committed
                and transaction not in state.reported
                and state.commit_value(transaction) == action.value
            )
        if isinstance(action, ReportAbort):
            transaction = action.transaction
            return transaction in state.aborted and transaction not in state.reported
        return False

    def effect(self, state: SimpleDatabaseState, action: Action) -> SimpleDatabaseState:
        if isinstance(action, RequestCreate):
            return replace(
                state, create_requested=state.create_requested | {action.transaction}
            )
        if isinstance(action, RequestCommit):
            new = state
            if self.system_type.is_access(action.transaction):
                new = replace(new, responded=new.responded | {action.transaction})
            if not new.has_commit_request(action.transaction):
                new = replace(
                    new,
                    commit_requested=new.commit_requested
                    + ((action.transaction, action.value),),
                )
            return new
        if isinstance(action, Create):
            return replace(state, created=state.created | {action.transaction})
        if isinstance(action, Commit):
            return replace(state, committed=state.committed | {action.transaction})
        if isinstance(action, Abort):
            return replace(state, aborted=state.aborted | {action.transaction})
        if isinstance(action, (ReportCommit, ReportAbort)):
            return replace(state, reported=state.reported | {action.transaction})
        raise ValueError(f"{self.name}: {action} not in signature")


def check_simple_behavior(
    behavior: Sequence[Action], system_type: SystemType
) -> List[str]:
    """Check the simple-database constraints over a serial action sequence.

    Returns problem descriptions (empty means ``behavior`` satisfies the
    constraints every simple behavior satisfies).  This is the sequence
    analogue of :class:`SimpleDatabase`, convenient for validating inputs
    to the certifier without automaton replay.
    """
    problems: List[str] = []
    create_requested: Set[TransactionName] = set()
    created: Set[TransactionName] = set()
    commit_requested: Dict[TransactionName, Any] = {}
    committed: Set[TransactionName] = set()
    aborted: Set[TransactionName] = set()
    reported: Set[TransactionName] = set()

    def note(position: int, action: Action, message: str) -> None:
        problems.append(f"event {position} ({action}): {message}")

    for position, action in enumerate(behavior):
        if not is_serial_action(action):
            note(position, action, "not a serial action")
            continue
        if isinstance(action, RequestCreate):
            create_requested.add(action.transaction)
        elif isinstance(action, Create):
            if action.transaction.is_root:
                note(position, action, "CREATE(T0) never occurs")
            if action.transaction not in create_requested:
                note(position, action, "CREATE without REQUEST_CREATE")
            if action.transaction in created:
                note(position, action, "duplicate CREATE")
            created.add(action.transaction)
        elif isinstance(action, RequestCommit):
            transaction = action.transaction
            if system_type.is_access(transaction):
                if transaction not in created:
                    note(position, action, "response to an access never invoked")
                if transaction in commit_requested:
                    note(position, action, "second response to an access")
            commit_requested.setdefault(transaction, action.value)
        elif isinstance(action, Commit):
            transaction = action.transaction
            if transaction not in commit_requested:
                note(position, action, "COMMIT without REQUEST_COMMIT")
            if transaction in committed or transaction in aborted:
                note(position, action, "second completion event")
            committed.add(transaction)
        elif isinstance(action, Abort):
            transaction = action.transaction
            if transaction not in create_requested:
                note(position, action, "ABORT without REQUEST_CREATE")
            if transaction in committed or transaction in aborted:
                note(position, action, "second completion event")
            aborted.add(transaction)
        elif isinstance(action, ReportCommit):
            transaction = action.transaction
            if transaction not in committed:
                note(position, action, "REPORT_COMMIT of a transaction not committed")
            elif commit_requested.get(transaction) != action.value:
                note(position, action, "reported value differs from requested value")
            if transaction in reported:
                note(position, action, "duplicate report")
            reported.add(transaction)
        elif isinstance(action, ReportAbort):
            transaction = action.transaction
            if transaction not in aborted:
                note(position, action, "REPORT_ABORT of a transaction not aborted")
            if transaction in reported:
                note(position, action, "duplicate report")
            reported.add(transaction)
    return problems


def make_simple_system(system_type, programs):
    """The simple system (Section 2.3.1): transactions + the simple database.

    The composition the Serializability Theorem quantifies over.  Its
    behaviors allow arbitrary interleavings and arbitrary access return
    values; concrete systems (serial, generic) implement it — a relation
    the test suite checks by replaying their behaviors here.
    """
    from ..automata.composition import Composition
    from ..sim.programs import ProgramTransaction, collect_programs

    components = [SimpleDatabase(system_type)]
    for transaction, program in sorted(collect_programs(programs).items()):
        components.append(ProgramTransaction(transaction, program))
    return Composition(components, name="simple-system")
