"""The generic controller automaton (Section 5.1).

The generic controller passes creation requests on, decides commits and
aborts, reports completions to parents, and informs objects of the fate
of transactions.  Unlike the serial scheduler it permits sibling
concurrency and may abort transactions that have already been created —
coping with the consequences is the generic objects' job.

Nondeterminism notes: the controller may deliver informs in any order
and at any time after the completion; the driver's scheduling policy
resolves these choices.  To keep the enabled-action enumeration finite
we track delivered informs and reports (re-delivery, while harmless in
the model, is never useful to a simulation).

Enumeration: :meth:`GenericController.enabled` is the definition.  The
state keeps, beside its history sets, the controller's *open work*:
transactions requested but not created, commit requests not yet
decided, requested transactions not yet completed, and completed
transactions that still owe a report or an inform to a relevant
object.  Each is held in the order the enumeration yields it, and
:meth:`GenericController.effect` updates it in time proportional to
the open work, so :meth:`GenericController.enabled_outputs` and
:meth:`GenericController.enabled_aborts` cost the open work rather than
the run so far.  The test suite keeps the full-history enumeration as
the reference and checks that both yield the same actions in the same
order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, FrozenSet, Iterator, List, Set, Tuple

from ..automata.base import IOAutomaton, SignatureRow, evolve
from ..core.actions import (
    Abort,
    Action,
    Commit,
    Create,
    InformAbort,
    InformCommit,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from ..core.names import ObjectName, SystemType, TransactionName

__all__ = ["CommitValues", "GenericControllerState", "GenericController"]

#: A report or inform the controller owes: committed before aborted,
#: then by transaction name, then the report ("") before the informs in
#: object-name order (object names are non-empty).
OwedKey = Tuple[int, Tuple[str, ...], str]
_COMMITTED, _ABORTED = 0, 1


def _path(action: Any) -> Tuple[str, ...]:
    return action.transaction.path


def _owed_key(action: Action) -> OwedKey:
    committed = isinstance(action, (ReportCommit, InformCommit))
    section = _COMMITTED if committed else _ABORTED
    obj = action.obj.name if isinstance(action, (InformCommit, InformAbort)) else ""
    return (section, _path(action), obj)


def _insert_by_name(actions: Tuple[Any, ...], action: Any) -> Tuple[Any, ...]:
    """``actions`` (in transaction-name order) with ``action`` added."""
    at = bisect_left(actions, _path(action), key=_path)
    return actions[:at] + (action,) + actions[at:]


def _remove_by_name(
    actions: Tuple[Any, ...], transaction: TransactionName
) -> Tuple[Any, ...]:
    """``actions`` (in transaction-name order) without ``transaction``'s."""
    at = bisect_left(actions, transaction.path, key=_path)
    if at < len(actions) and actions[at].transaction == transaction:
        return actions[:at] + actions[at + 1 :]
    return actions


def _insert_owed(owed: Tuple[Action, ...], due: List[Action]) -> Tuple[Action, ...]:
    """``owed`` with ``due`` (one transaction's, in key order) added."""
    if not due:
        return owed
    at = bisect_left(owed, _owed_key(due[0]), key=_owed_key)
    return owed[:at] + tuple(due) + owed[at:]


def _remove_owed(owed: Tuple[Action, ...], *keys: OwedKey) -> Tuple[Action, ...]:
    """``owed`` without the actions whose :func:`_owed_key` is in ``keys``."""
    for key in keys:
        at = bisect_left(owed, key, key=_owed_key)
        if at < len(owed) and _owed_key(owed[at]) == key:
            owed = owed[:at] + owed[at + 1 :]
    return owed


class CommitValues(Dict[TransactionName, Any]):
    """A dict of commit values that refuses changes, so it hashes.

    States share it copy-on-write: an effect that adds a value builds a
    new one (:meth:`with_value`), so lookups stay O(1) dict lookups and
    equal states hash alike.
    """

    __slots__ = ()

    def with_value(self, transaction: TransactionName, value: Any) -> "CommitValues":
        """A copy with ``transaction``'s value added."""
        copy = CommitValues(self)
        dict.__setitem__(copy, transaction, value)
        return copy

    def _refuse(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("commit values are read-only; build a new CommitValues")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(frozenset(self.items()))

    def __reduce__(self) -> Tuple[Any, Tuple[Dict[TransactionName, Any]]]:
        return (CommitValues, (dict(self),))


@dataclass(frozen=True)
class GenericControllerState:
    """Immutable bookkeeping of requests, completions, reports and informs.

    ``commit_values`` is a read-only :class:`CommitValues` dict that
    effects copy on write, so value lookups stay O(1) even in large
    simulations and the state hashes.

    The last four fields are the open work, derived from the history
    sets by :meth:`GenericController.effect` and held in enumeration
    order: ``creatable`` (requested, not created; by name),
    ``committable`` (commit requested, not completed; by request),
    ``abortable`` (requested, not completed; by name) and ``owed`` (the
    reports and relevant informs completed transactions still owe; see
    :data:`OwedKey`).  Build states with ``initial_state`` and
    ``effect``, never by hand.
    """

    create_requested: FrozenSet[TransactionName] = frozenset()
    created: FrozenSet[TransactionName] = frozenset()
    commit_values: CommitValues = field(default_factory=CommitValues)
    committed: FrozenSet[TransactionName] = frozenset()
    aborted: FrozenSet[TransactionName] = frozenset()
    reported: FrozenSet[TransactionName] = frozenset()
    informed: FrozenSet[Tuple[ObjectName, TransactionName]] = frozenset()
    creatable: Tuple[Create, ...] = ()
    committable: Tuple[Commit, ...] = ()
    abortable: Tuple[Abort, ...] = ()
    owed: Tuple[Action, ...] = ()

    def completed(self, transaction: TransactionName) -> bool:
        return transaction in self.committed or transaction in self.aborted

    def commit_requested(self, transaction: TransactionName) -> bool:
        return transaction in self.commit_values

    def value_of(self, transaction: TransactionName) -> Any:
        return self.commit_values[transaction]


class GenericController(IOAutomaton):
    """The generic controller for a given system type."""

    name = "generic-controller"

    def __init__(self, system_type: SystemType) -> None:
        self.system_type = system_type
        # Which objects care about a transaction's fate: those with an
        # access in its subtree, in name order.  The model permits
        # informing any object about any transaction (see ``enabled``),
        # but enumerating only the relevant pairs keeps simulations
        # linear — informs outside this map cannot affect any object's
        # state.
        relevant: Dict[TransactionName, Set[ObjectName]] = {}
        for access, info in system_type.all_accesses().items():
            for ancestor in access.ancestors():
                if ancestor.is_root:
                    continue
                relevant.setdefault(ancestor, set()).add(info.obj)
        self._relevant_objects: Dict[TransactionName, Tuple[ObjectName, ...]] = {
            transaction: tuple(sorted(objects))
            for transaction, objects in relevant.items()
        }

    # -- signature ---------------------------------------------------------

    def signature(self) -> Iterator[SignatureRow]:
        """Every request as an input; every CREATE, completion, report
        and inform as an output."""
        for cls in (RequestCreate, RequestCommit):
            yield cls, None, False
        for cls in (
            Create, Commit, Abort, ReportCommit, ReportAbort, InformCommit, InformAbort
        ):
            yield cls, None, True

    # -- transitions ----------------------------------------------------------

    def initial_state(self) -> GenericControllerState:
        return GenericControllerState()

    def enabled(self, state: GenericControllerState, action: Action) -> bool:
        if self.is_input(action):
            return True
        if isinstance(action, Create):
            transaction = action.transaction
            return (
                transaction in state.create_requested
                and transaction not in state.created
            )
        if isinstance(action, Commit):
            transaction = action.transaction
            return state.commit_requested(transaction) and not state.completed(
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
                and state.commit_requested(transaction)
                and state.value_of(transaction) == action.value
            )
        if isinstance(action, ReportAbort):
            transaction = action.transaction
            return transaction in state.aborted and transaction not in state.reported
        if isinstance(action, InformCommit):
            return (
                action.transaction in state.committed
                and (action.obj, action.transaction) not in state.informed
            )
        if isinstance(action, InformAbort):
            return (
                action.transaction in state.aborted
                and (action.obj, action.transaction) not in state.informed
            )
        return False

    def effect(
        self, state: GenericControllerState, action: Action
    ) -> GenericControllerState:
        if isinstance(action, RequestCreate):
            transaction = action.transaction
            if transaction in state.create_requested:
                return state
            changes: Dict[str, Any] = {
                "create_requested": state.create_requested | {transaction}
            }
            if transaction not in state.created:
                changes["creatable"] = _insert_by_name(
                    state.creatable, Create(transaction)
                )
            if not state.completed(transaction):
                changes["abortable"] = _insert_by_name(
                    state.abortable, Abort(transaction)
                )
            return evolve(state, **changes)
        if isinstance(action, RequestCommit):
            transaction = action.transaction
            if state.commit_requested(transaction):
                return state
            changes = {
                "commit_values": state.commit_values.with_value(
                    transaction, action.value
                )
            }
            if not state.completed(transaction):
                changes["committable"] = state.committable + (Commit(transaction),)
            elif transaction in state.committed and transaction not in state.reported:
                # committed before its request: the report falls due now
                changes["owed"] = _insert_owed(
                    state.owed, [ReportCommit(transaction, action.value)]
                )
            return evolve(state, **changes)
        if isinstance(action, Create):
            return evolve(
                state,
                created=state.created | {action.transaction},
                creatable=_remove_by_name(state.creatable, action.transaction),
            )
        if isinstance(action, Commit):
            return self._complete(state, action.transaction, committed=True)
        if isinstance(action, Abort):
            return self._complete(state, action.transaction, committed=False)
        if isinstance(action, (ReportCommit, ReportAbort)):
            path = action.transaction.path
            return evolve(
                state,
                reported=state.reported | {action.transaction},
                owed=_remove_owed(
                    state.owed, (_COMMITTED, path, ""), (_ABORTED, path, "")
                ),
            )
        if isinstance(action, (InformCommit, InformAbort)):
            path, obj = action.transaction.path, action.obj.name
            return evolve(
                state,
                informed=state.informed | {(action.obj, action.transaction)},
                owed=_remove_owed(
                    state.owed, (_COMMITTED, path, obj), (_ABORTED, path, obj)
                ),
            )
        raise ValueError(f"{self.name}: {action} not in signature")

    def _complete(
        self,
        state: GenericControllerState,
        transaction: TransactionName,
        committed: bool,
    ) -> GenericControllerState:
        """The state after COMMIT (``committed``) or ABORT of ``transaction``:
        it is no longer committable or abortable, and its report and its
        informs to relevant objects fall due."""
        fates = state.committed if committed else state.aborted
        if transaction in fates:
            return state
        due: List[Action] = []
        if transaction not in state.reported:
            if not committed:
                due.append(ReportAbort(transaction))
            elif state.commit_requested(transaction):
                due.append(ReportCommit(transaction, state.value_of(transaction)))
        for obj in self._relevant_objects.get(transaction, ()):
            if (obj, transaction) not in state.informed:
                due.append(
                    InformCommit(obj, transaction)
                    if committed
                    else InformAbort(obj, transaction)
                )
        changes: Dict[str, Any] = {
            "committed" if committed else "aborted": fates | {transaction},
            "owed": _insert_owed(state.owed, due),
        }
        if not state.completed(transaction):
            changes["committable"] = tuple(
                commit
                for commit in state.committable
                if commit.transaction != transaction
            )
            changes["abortable"] = _remove_by_name(state.abortable, transaction)
        return evolve(state, **changes)

    def enabled_outputs(self, state: GenericControllerState) -> Iterator[Action]:
        """CREATEs by name, COMMITs by request, then the owed reports and
        informs: committed transactions by name, each one's report before
        its informs in object order, then aborted ones likewise."""
        return chain(state.creatable, state.committable, state.owed)

    def enabled_aborts(self, state: GenericControllerState) -> Tuple[Abort, ...]:
        """Abort actions currently enabled, by name — used by
        fault-injection policies.

        Aborts are deliberately kept out of :meth:`enabled_outputs` so that
        a simulated run only aborts transactions when its policy decides to
        inject a fault; the automaton itself still models them as ordinary
        enabled outputs via :meth:`enabled`.
        """
        return state.abortable
