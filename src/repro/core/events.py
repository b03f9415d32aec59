"""Sequence machinery over behaviors: projections, visibility, orphans, affects.

Everything in this module is a pure function of a behavior (a sequence of
actions), mirroring Section 2.2.4 and 2.3.2 of the paper:

* ``beta | T``     — :func:`project_transaction`
* ``beta | X``     — :func:`project_object`
* ``serial(beta)`` — :func:`serial_projection`
* orphans / live   — :meth:`StatusIndex.is_orphan` / :meth:`StatusIndex.is_live`
* ``visible(beta, T)``  — :func:`visible_projection`
* ``clean(beta)``  — :func:`clean_projection`
* ``directly-affects`` and ``affects`` — :func:`directly_affects_pairs`,
  :class:`AffectsRelation`

Because the same action can occur more than once in a behavior, relations
on *events* are represented as relations on event indices.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .actions import (
    Abort,
    Action,
    Behavior,
    Commit,
    Create,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
    hightransaction,
    is_serial_action,
    transaction_of,
)
from .names import ObjectName, SystemType, TransactionName

__all__ = [
    "serial_projection",
    "project_transaction",
    "project_object",
    "StatusIndex",
    "visible_projection",
    "clean_projection",
    "directly_affects_pairs",
    "AffectsRelation",
]


def serial_projection(behavior: Sequence[Action]) -> Behavior:
    """``serial(beta)``: the subsequence of serial actions of ``behavior``."""
    return tuple(action for action in behavior if is_serial_action(action))


def project_transaction(
    behavior: Sequence[Action],
    transaction: TransactionName,
    index: Optional["StatusIndex"] = None,
) -> Behavior:
    """``beta | T``: serial actions whose ``transaction(pi)`` equals ``T``.

    When ``index`` is a :class:`repro.core.history.HistoryIndex` covering
    ``behavior``, the projection is a cached index slice.
    """
    if index is not None:
        cached = getattr(index, "cached_project_transaction", None)
        if cached is not None:
            result = cached(behavior, transaction)
            if result is not None:
                return result
    return tuple(
        action
        for action in behavior
        if is_serial_action(action) and transaction_of(action) == transaction
    )


def project_object(
    behavior: Sequence[Action],
    obj: ObjectName,
    system_type: SystemType,
    index: Optional["StatusIndex"] = None,
) -> Behavior:
    """``beta | X``: serial actions whose ``object(pi)`` equals ``X``.

    These are exactly the CREATE and REQUEST_COMMIT events of accesses
    to ``X``.  When ``index`` is a :class:`repro.core.history.HistoryIndex`
    covering ``behavior``, the projection is a cached index slice.
    """
    if index is not None:
        cached = getattr(index, "cached_project_object", None)
        if cached is not None:
            projected = cached(behavior, obj)
            if projected is not None:
                return projected
    result = []
    for action in behavior:
        if not isinstance(action, (Create, RequestCommit)):
            continue
        if system_type.is_access(action.transaction):
            if system_type.object_of(action.transaction) == obj:
                result.append(action)
    return tuple(result)


class StatusIndex:
    """A one-pass index of completion and creation status over a behavior.

    Precomputes the sets needed by nearly every definition in the paper
    (committed, aborted, created, requested transactions; commit values)
    so that visibility and orphan tests are cheap.
    """

    def __init__(self, behavior: Sequence[Action]) -> None:
        self.committed: Set[TransactionName] = set()
        self.aborted: Set[TransactionName] = set()
        self.created: Set[TransactionName] = set()
        self.create_requested: Set[TransactionName] = set()
        self.commit_requested: Dict[TransactionName, object] = {}
        self.reported: Set[TransactionName] = set()
        for action in behavior:
            if isinstance(action, Commit):
                self.committed.add(action.transaction)
            elif isinstance(action, Abort):
                self.aborted.add(action.transaction)
            elif isinstance(action, Create):
                self.created.add(action.transaction)
            elif isinstance(action, RequestCreate):
                self.create_requested.add(action.transaction)
            elif isinstance(action, RequestCommit):
                self.commit_requested.setdefault(action.transaction, action.value)
            elif isinstance(action, (ReportCommit, ReportAbort)):
                self.reported.add(action.transaction)

    def completed(self, transaction: TransactionName) -> bool:
        return transaction in self.committed or transaction in self.aborted

    def is_orphan(self, transaction: TransactionName) -> bool:
        """True iff some ancestor of ``transaction`` aborted (Section 2.2.4)."""
        return any(ancestor in self.aborted for ancestor in transaction.ancestors())

    def is_live(self, transaction: TransactionName) -> bool:
        """True iff ``transaction`` was created but has no completion event."""
        return transaction in self.created and not self.completed(transaction)

    def is_visible(self, source: TransactionName, to: TransactionName) -> bool:
        """``source`` is visible to ``to``: every ancestor of ``source`` that is
        not an ancestor of ``to`` has committed (Section 2.3.2)."""
        for ancestor in source.ancestors():
            if ancestor.is_ancestor_of(to):
                return True
            if ancestor not in self.committed:
                return False
        return True

    def visible_transactions(
        self, to: TransactionName, candidates: Iterable[TransactionName]
    ) -> Set[TransactionName]:
        return {t for t in candidates if self.is_visible(t, to)}


def visible_projection(
    behavior: Sequence[Action],
    to: TransactionName,
    index: Optional[StatusIndex] = None,
) -> Behavior:
    """``visible(beta, T)``: serial actions whose hightransaction is visible to T.

    When ``index`` is a :class:`repro.core.history.HistoryIndex` covering
    ``behavior``, the cached projection is returned without a scan.
    """
    if index is not None:
        cached = getattr(index, "cached_visible_projection", None)
        if cached is not None:
            result = cached(behavior, to)
            if result is not None:
                return result
    index = index if index is not None else StatusIndex(behavior)
    return tuple(
        action
        for action in behavior
        if is_serial_action(action) and index.is_visible(hightransaction(action), to)
    )


def clean_projection(
    behavior: Sequence[Action], index: Optional[StatusIndex] = None
) -> Behavior:
    """``clean(beta)``: serial actions whose hightransaction is not an orphan.

    When ``index`` is a :class:`repro.core.history.HistoryIndex` covering
    ``behavior``, the cached projection is returned without a scan.
    """
    if index is not None:
        cached = getattr(index, "cached_clean_projection", None)
        if cached is not None:
            result = cached(behavior)
            if result is not None:
                return result
    index = index if index is not None else StatusIndex(behavior)
    return tuple(
        action
        for action in behavior
        if is_serial_action(action) and not index.is_orphan(hightransaction(action))
    )


def directly_affects_pairs(behavior: Sequence[Action]) -> List[Tuple[int, int]]:
    """The ``directly-affects(beta)`` relation as forward index pairs.

    Per Section 2.3.2, ``(phi, pi)`` is in the relation when one of:

    * ``transaction(phi) == transaction(pi)`` and ``phi`` precedes ``pi``;
    * ``phi = REQUEST_CREATE(T)`` and ``pi = CREATE(T)``;
    * ``phi = REQUEST_COMMIT(T, v)`` and ``pi = COMMIT(T)``;
    * ``phi = REQUEST_CREATE(T)`` and ``pi = ABORT(T)``;
    * ``phi = COMMIT(T)`` and ``pi = REPORT_COMMIT(T, v)``;
    * ``phi = ABORT(T)`` and ``pi = REPORT_ABORT(T)``.

    Only serial events participate; in a well-formed behavior all these
    dependencies point forward, and we record only forward pairs.
    """
    pairs: List[Tuple[int, int]] = []
    serial_events = [
        (i, action) for i, action in enumerate(behavior) if is_serial_action(action)
    ]
    by_transaction: Dict[TransactionName, List[int]] = {}
    for i, action in serial_events:
        txn = transaction_of(action)
        if txn is not None:
            positions = by_transaction.setdefault(txn, [])
            for earlier in positions:
                pairs.append((earlier, i))
            positions.append(i)

    def matching_positions(predicate: Callable[[Action], bool]) -> List[int]:
        return [i for i, action in serial_events if predicate(action)]

    for j, action in serial_events:
        if isinstance(action, Create):
            target = action.transaction
            sources = matching_positions(
                lambda a, t=target: isinstance(a, RequestCreate) and a.transaction == t
            )
        elif isinstance(action, Commit):
            target = action.transaction
            sources = matching_positions(
                lambda a, t=target: isinstance(a, RequestCommit) and a.transaction == t
            )
        elif isinstance(action, Abort):
            target = action.transaction
            sources = matching_positions(
                lambda a, t=target: isinstance(a, RequestCreate) and a.transaction == t
            )
        elif isinstance(action, ReportCommit):
            target = action.transaction
            sources = matching_positions(
                lambda a, t=target: isinstance(a, Commit) and a.transaction == t
            )
        elif isinstance(action, ReportAbort):
            target = action.transaction
            sources = matching_positions(
                lambda a, t=target: isinstance(a, Abort) and a.transaction == t
            )
        else:
            continue
        for i in sources:
            if i < j:
                pairs.append((i, j))
    return sorted(set(pairs))


class AffectsRelation:
    """``affects(beta)``: the transitive closure of ``directly-affects``.

    Materialised as per-event reachability sets over event indices.
    Quadratic in the number of events — intended for checking and tests,
    not for the hot path (the serialization graph itself never needs it).
    """

    def __init__(self, behavior: Sequence[Action]) -> None:
        self._n = len(behavior)
        direct = directly_affects_pairs(behavior)
        successors: Dict[int, Set[int]] = {}
        for i, j in direct:
            successors.setdefault(i, set()).add(j)
        # Process events from last to first; reach[i] = union of reach[j] for
        # each direct successor j (all successors are strictly later).
        self._reach: Dict[int, FrozenSet[int]] = {}
        for i in range(self._n - 1, -1, -1):
            acc: Set[int] = set()
            for j in successors.get(i, ()):
                acc.add(j)
                acc |= self._reach.get(j, frozenset())
            if acc:
                self._reach[i] = frozenset(acc)

    def affects(self, i: int, j: int) -> bool:
        """True iff event ``i`` affects event ``j`` (indices into the behavior)."""
        return j in self._reach.get(i, frozenset())

    def pairs(self) -> List[Tuple[int, int]]:
        return sorted((i, j) for i, reach in self._reach.items() for j in reach)
