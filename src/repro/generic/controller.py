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
object.  Each is held in the order the enumeration yields it, the
sorted ones beside their sort keys, and
:meth:`GenericController.effect` (one handler per action class, looked
up by the action's class) updates it in time proportional to the open
work, finding each position by a bisect over the keys, so
:meth:`GenericController.enabled_outputs` and
:meth:`GenericController.enabled_aborts` cost the open work rather than
the run so far.  The test suite keeps the full-history enumeration as
the reference and checks that both yield the same actions in the same
order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Set, Tuple, Union

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

#: A run of open work and its sort keys, kept side by side.
Keyed = Tuple[Tuple[Any, ...], Tuple[Any, ...]]


def _insert(
    actions: Tuple[Any, ...],
    keys: Tuple[Any, ...],
    added: Tuple[Any, ...],
    added_keys: Tuple[Any, ...],
) -> Keyed:
    """``actions`` (in ``keys`` order) with the run ``added`` (in
    ``added_keys`` order, no other key between its first and last) put
    in place."""
    at = bisect_left(keys, added_keys[0])
    return actions[:at] + added + actions[at:], keys[:at] + added_keys + keys[at:]


def _remove(actions: Tuple[Any, ...], keys: Tuple[Any, ...], key: Any) -> Keyed:
    """``actions`` (in ``keys`` order) without the one keyed ``key``."""
    at = bisect_left(keys, key)
    if at < len(keys) and keys[at] == key:
        return actions[:at] + actions[at + 1 :], keys[:at] + keys[at + 1 :]
    return actions, keys


def _remove_owed(
    owed: Tuple[Action, ...],
    keys: Tuple[OwedKey, ...],
    path: Tuple[str, ...],
    obj: str,
) -> Keyed:
    """``owed`` without the actions keyed ``(section, path, obj)`` in
    either section (a report has ``obj`` "")."""
    owed, keys = _remove(owed, keys, (_COMMITTED, path, obj))
    return _remove(owed, keys, (_ABORTED, path, obj))


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

    The next four fields are the open work, derived from the history
    sets by :meth:`GenericController.effect` and held in enumeration
    order: ``creatable`` (requested, not created; by name),
    ``committable`` (commit requested, not completed; by request),
    ``abortable`` (requested, not completed; by name) and ``owed`` (the
    reports and relevant informs completed transactions still owe; see
    :data:`OwedKey`).  The last three hold the sort keys of the sorted
    ones, position for position: the transactions' paths for
    ``creatable`` and ``abortable``, the :data:`OwedKey` of each owed
    action, so ``effect`` finds a position by bisecting plain tuples.
    They are a function of the open work, so equality, hashing and
    ``repr`` leave them out.  Build states with ``initial_state`` and
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
    creatable_keys: Tuple[Tuple[str, ...], ...] = field(
        default=(), repr=False, compare=False
    )
    abortable_keys: Tuple[Tuple[str, ...], ...] = field(
        default=(), repr=False, compare=False
    )
    owed_keys: Tuple[OwedKey, ...] = field(default=(), repr=False, compare=False)

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
        if (handler := self._EFFECTS.get(type(action))) is None:
            raise ValueError(f"{self.name}: {action} not in signature")
        return handler(self, state, action)

    def _request_create(
        self, state: GenericControllerState, action: RequestCreate
    ) -> GenericControllerState:
        transaction = action.transaction
        if transaction in state.create_requested:
            return state
        changes: Dict[str, Any] = {
            "create_requested": state.create_requested | {transaction}
        }
        key = (transaction.path,)
        if transaction not in state.created:
            changes["creatable"], changes["creatable_keys"] = _insert(
                state.creatable, state.creatable_keys, (Create(transaction),), key
            )
        if not state.completed(transaction):
            changes["abortable"], changes["abortable_keys"] = _insert(
                state.abortable, state.abortable_keys, (Abort(transaction),), key
            )
        return evolve(state, **changes)

    def _request_commit(
        self, state: GenericControllerState, action: RequestCommit
    ) -> GenericControllerState:
        transaction = action.transaction
        if state.commit_requested(transaction):
            return state
        changes: Dict[str, Any] = {
            "commit_values": state.commit_values.with_value(transaction, action.value)
        }
        if not state.completed(transaction):
            changes["committable"] = state.committable + (Commit(transaction),)
        elif transaction in state.committed and transaction not in state.reported:
            # committed before its request: the report falls due now
            changes["owed"], changes["owed_keys"] = _insert(
                state.owed,
                state.owed_keys,
                (ReportCommit(transaction, action.value),),
                ((_COMMITTED, transaction.path, ""),),
            )
        return evolve(state, **changes)

    def _create(
        self, state: GenericControllerState, action: Create
    ) -> GenericControllerState:
        transaction = action.transaction
        creatable, creatable_keys = _remove(
            state.creatable, state.creatable_keys, transaction.path
        )
        return evolve(
            state,
            created=state.created | {transaction},
            creatable=creatable,
            creatable_keys=creatable_keys,
        )

    def _complete(
        self, state: GenericControllerState, action: Union[Commit, Abort]
    ) -> GenericControllerState:
        """The state after COMMIT or ABORT of ``action``'s transaction:
        it is no longer committable or abortable, and its report and its
        informs to relevant objects fall due."""
        transaction = action.transaction
        committed = type(action) is Commit
        fates = state.committed if committed else state.aborted
        if transaction in fates:
            return state
        path = transaction.path
        section = _COMMITTED if committed else _ABORTED
        due: List[Action] = []
        if transaction not in state.reported:
            if not committed:
                due.append(ReportAbort(transaction))
            elif state.commit_requested(transaction):
                due.append(ReportCommit(transaction, state.value_of(transaction)))
        due_keys: List[OwedKey] = [(section, path, "")] * len(due)
        inform = InformCommit if committed else InformAbort
        for obj in self._relevant_objects.get(transaction, ()):
            if (obj, transaction) not in state.informed:
                due.append(inform(obj, transaction))
                due_keys.append((section, path, obj.name))
        changes: Dict[str, Any] = {
            "committed" if committed else "aborted": fates | {transaction}
        }
        if due:
            changes["owed"], changes["owed_keys"] = _insert(
                state.owed, state.owed_keys, tuple(due), tuple(due_keys)
            )
        if not state.completed(transaction):
            changes["committable"] = tuple(
                commit
                for commit in state.committable
                if commit.transaction.path != path
            )
            changes["abortable"], changes["abortable_keys"] = _remove(
                state.abortable, state.abortable_keys, path
            )
        return evolve(state, **changes)

    def _report(
        self, state: GenericControllerState, action: Union[ReportCommit, ReportAbort]
    ) -> GenericControllerState:
        transaction = action.transaction
        owed, owed_keys = _remove_owed(
            state.owed, state.owed_keys, transaction.path, ""
        )
        return evolve(
            state,
            reported=state.reported | {transaction},
            owed=owed,
            owed_keys=owed_keys,
        )

    def _inform(
        self, state: GenericControllerState, action: Union[InformCommit, InformAbort]
    ) -> GenericControllerState:
        transaction, obj = action.transaction, action.obj
        owed, owed_keys = _remove_owed(
            state.owed, state.owed_keys, transaction.path, obj.name
        )
        return evolve(
            state,
            informed=state.informed | {(obj, transaction)},
            owed=owed,
            owed_keys=owed_keys,
        )

    #: Each input and output class's transition, looked up by the
    #: action's exact class (as the composition routes it).
    _EFFECTS: Dict[type, Callable[..., GenericControllerState]] = {
        RequestCreate: _request_create,
        RequestCommit: _request_commit,
        Create: _create,
        Commit: _complete,
        Abort: _complete,
        ReportCommit: _report,
        ReportAbort: _report,
        InformCommit: _inform,
        InformAbort: _inform,
    }

    def enabled_outputs(self, state: GenericControllerState) -> Iterator[Action]:
        """CREATEs by name, COMMITs by request, then the owed reports and
        informs: committed transactions by name, each one's report before
        its informs in object order, then aborted ones likewise."""
        return chain(state.creatable, state.committable, state.owed)

    def enabled_aborts(self, state: GenericControllerState) -> Tuple[Abort, ...]:
        """Abort actions currently enabled, by name — handed by the
        driver to every scheduling policy's ``choose``.

        Aborts are deliberately kept out of :meth:`enabled_outputs` so that
        a simulated run only aborts transactions when its policy decides to
        inject a fault; the automaton itself still models them as ordinary
        enabled outputs via :meth:`enabled`.
        """
        return state.abortable
