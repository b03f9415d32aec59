"""A shared one-pass index over a behavior: the history side of certification.

The paper-definition functions (the serialization-graph relations, the
return-value check, the witness builder) and the diagnostics built on
them — the oracle, ``view``, suitability, ``explain`` — need the same
handful of derived structures: projections (``beta | T``, ``beta | X``),
the visibility and orphan relations, the first-report / request-create
position maps, and the per-object access sequences the conflict
relation is defined over.  Without an index each one re-scans the full
event sequence to recompute them.

:class:`HistoryIndex` materialises all of it in **one O(n) pass**:

* per-transaction and per-object event position lists, so projections
  become index slices instead of full scans;
* the completion/creation status sets of :class:`StatusIndex` (which it
  subclasses — a ``HistoryIndex`` is accepted anywhere a ``StatusIndex``
  is), with *memoized* ``is_orphan`` / ``is_visible`` — cached per
  transaction and per ``(source, to)`` pair instead of re-walking
  ancestor chains;
* cached ``visible(beta, T)`` / ``clean(beta)`` projections;
* per-object visible access REQUEST_COMMIT buckets, from which
  :mod:`repro.core.explain` recovers the operation pairs behind a
  conflict edge;
* the first-REPORT / first-REQUEST_CREATE position maps.

The index is a snapshot: it describes exactly the behavior it was built
over.  Helpers that accept an optional index therefore verify coverage
through :meth:`HistoryIndex.covers` before trusting the caches, and fall
back to the naive scan otherwise.

A :class:`ConflictCache` memoizes commutativity verdicts.  Specs and
``(op, value)`` operation classes are interned to dense ints at first
sight and verdicts are keyed on the id triple — the same operation pair
never consults the specification twice *and* never re-hashes the
structured key, which matters both for data types whose
``commutes_backward`` replays bounded domains and for the columnar
engine (:mod:`repro.core.columnar`), whose event columns store the same
dense class ids directly.

Pass a :class:`repro.obs.MetricsRegistry` as ``metrics=`` to surface the
``history.index.*`` counters documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
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
from .events import StatusIndex
from .names import ROOT, ObjectName, SystemType, TransactionName

__all__ = ["HistoryIndex", "ConflictCache", "spec_is_read_only"]


def spec_is_read_only(spec: Any, op: Any) -> bool:
    """True iff ``spec`` declares ``op`` read-only (state-preserving).

    Two read-only operations always commute backward — neither changes
    the state, and both return values are functions of the state — so
    conflict enumeration may skip read/read pairs entirely.  Specs
    without an ``is_read_only`` predicate get the safe answer.
    """
    probe = getattr(spec, "is_read_only", None)
    if probe is None:
        return False
    return bool(probe(op))


class ConflictCache:
    """Memoized conflict verdicts, keyed by dense interned ids.

    Specifications and ``(op, value)`` operation classes are interned to
    small ints on first sight; a verdict is stored once per
    ``(spec_id, class_i, class_j)`` triple.  Specifications are required
    to be hashable (read/write specs are frozen dataclasses; data types
    hash by identity) and conflict predicates are pure, so one verdict
    per distinct triple is enough for a whole process.  Used by the
    columnar engine (whose event columns hold the same class ids, so
    lookups skip the structured-key hashing entirely), the online
    certifier (which may share one across instances) and the evidence
    search of :mod:`repro.core.explain`.  Every table grows with the
    distinct specs and operation classes seen, as a ``SystemType``'s
    access registry does.
    """

    def __init__(self) -> None:
        self._verdicts: Dict[Tuple[int, int, int], bool] = {}
        self._spec_ids: Dict[Any, int] = {}
        self._specs: List[Any] = []
        self._operation_ids: Dict[Tuple[Any, Any], int] = {}
        self._operations: List[Tuple[Any, Any]] = []
        self.hits = 0
        self.misses = 0

    # -- dense interning ---------------------------------------------------

    def spec_id(self, spec: Any) -> int:
        """The dense id of ``spec``, interning it on first sight."""
        sid = self._spec_ids.get(spec)
        if sid is None:
            sid = len(self._specs)
            self._spec_ids[spec] = sid
            self._specs.append(spec)
        return sid

    def operation_id(self, op: Any, value: Any) -> int:
        """The dense id of the operation class ``(op, value)``."""
        key = (op, value)
        oid = self._operation_ids.get(key)
        if oid is None:
            oid = len(self._operations)
            self._operation_ids[key] = oid
            self._operations.append(key)
        return oid

    def operation_payload(self, operation_id: int) -> Tuple[Any, Any]:
        """The ``(op, value)`` pair an operation id stands for."""
        return self._operations[operation_id]

    def operation_count(self) -> int:
        """How many distinct operation classes have been interned."""
        return len(self._operations)

    # -- verdicts ----------------------------------------------------------

    def conflicts(self, spec: Any, op1: Any, value1: Any, op2: Any, value2: Any) -> bool:
        return self.conflicts_ids(
            self.spec_id(spec),
            self.operation_id(op1, value1),
            self.operation_id(op2, value2),
        )

    def conflicts_ids(self, spec_id: int, first: int, second: int) -> bool:
        """The memoized verdict for two already-interned operation classes."""
        key = (spec_id, first, second)
        verdict = self._verdicts.get(key)
        if verdict is None:
            op1, value1 = self._operations[first]
            op2, value2 = self._operations[second]
            verdict = bool(self._specs[spec_id].conflicts(op1, value1, op2, value2))
            self._verdicts[key] = verdict
            self.misses += 1
        else:
            self.hits += 1
        return verdict

    def __len__(self) -> int:
        return len(self._verdicts)


class HistoryIndex(StatusIndex):
    """The one-pass shared index described in the module docstring.

    ``system_type`` is optional: without it the object-level structures
    (per-object projections, access buckets) are simply absent, and the
    transaction-level machinery still works.  ``metrics`` (optional)
    records the build and the visibility memo under ``history.index.*``.
    """

    def __init__(
        self,
        behavior: Sequence[Action],
        system_type: Optional[SystemType] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.behavior: Behavior = (
            behavior if isinstance(behavior, tuple) else tuple(behavior)
        )
        self.system_type = system_type
        self._metrics = metrics
        # -- StatusIndex state (built here in the same single pass) ------
        self.committed = set()
        self.aborted = set()
        self.created = set()
        self.create_requested = set()
        self.commit_requested = {}
        self.reported = set()
        # -- positions ----------------------------------------------------
        self._serial_positions: List[int] = []
        self._by_transaction: Dict[TransactionName, List[int]] = {}
        self._by_object: Dict[ObjectName, List[int]] = {}
        #: per-object access REQUEST_COMMIT events in behavior order:
        #: (position, access name, op descriptor, returned value)
        self._access_commits: Dict[
            ObjectName, List[Tuple[int, TransactionName, Any, Any]]
        ] = {}
        #: first REPORT_* position per reported child
        self.first_report: Dict[TransactionName, int] = {}
        #: first REQUEST_CREATE position per requested child
        self.request_create_positions: Dict[TransactionName, int] = {}
        # -- memo caches ---------------------------------------------------
        self._orphan_memo: Dict[TransactionName, bool] = {}
        self._visible_memo: Dict[Tuple[TransactionName, TransactionName], bool] = {}
        self._visible_projections: Dict[TransactionName, Behavior] = {}
        self._clean_projection: Optional[Behavior] = None
        self._serial_projection: Optional[Behavior] = None
        self._transaction_projections: Dict[TransactionName, Behavior] = {}
        self._object_projections: Dict[ObjectName, Behavior] = {}
        self._visible_access_commits: Dict[
            ObjectName, List[Tuple[int, TransactionName, Any, Any]]
        ] = {}
        self.conflict_cache = ConflictCache()

        is_access = system_type.is_access if system_type is not None else None
        all_serial = True
        for position, action in enumerate(self.behavior):
            if not is_serial_action(action):
                all_serial = False
                continue
            self._serial_positions.append(position)
            txn = transaction_of(action)
            if txn is not None:
                self._by_transaction.setdefault(txn, []).append(position)
            if isinstance(action, Commit):
                self.committed.add(action.transaction)
            elif isinstance(action, Abort):
                self.aborted.add(action.transaction)
            elif isinstance(action, Create):
                self.created.add(action.transaction)
                if is_access is not None and is_access(action.transaction):
                    obj = system_type.object_of(action.transaction)
                    self._by_object.setdefault(obj, []).append(position)
            elif isinstance(action, RequestCreate):
                requested = action.transaction
                self.create_requested.add(requested)
                self.request_create_positions.setdefault(requested, position)
            elif isinstance(action, RequestCommit):
                self.commit_requested.setdefault(action.transaction, action.value)
                if is_access is not None and is_access(action.transaction):
                    access = system_type.access(action.transaction)
                    obj = access.obj
                    self._by_object.setdefault(obj, []).append(position)
                    self._access_commits.setdefault(obj, []).append(
                        (position, action.transaction, access.op, action.value)
                    )
            elif isinstance(action, (ReportCommit, ReportAbort)):
                self.reported.add(action.transaction)
                self.first_report.setdefault(action.transaction, position)
        self._all_serial = all_serial
        if metrics is not None:
            metrics.inc("history.index.builds")
            metrics.inc("history.index.events", len(self.behavior))

    # -- snapshot identity --------------------------------------------------

    def covers(self, behavior: Sequence[Action]) -> bool:
        """True iff this index was built over exactly ``behavior``."""
        if behavior is self.behavior:
            return True
        if len(behavior) != len(self.behavior):
            return False
        return tuple(behavior) == self.behavior

    # -- memoized orphan / visibility ----------------------------------------

    def is_orphan(self, transaction: TransactionName) -> bool:
        """Memoized: some ancestor of ``transaction`` aborted."""
        memo = self._orphan_memo
        verdict = memo.get(transaction)
        if verdict is None:
            # orphan(T) = T aborted, or parent(T) is an orphan
            if transaction in self.aborted:
                verdict = True
            elif transaction.is_root:
                verdict = False
            else:
                verdict = self.is_orphan(transaction.parent)
            memo[transaction] = verdict
        return verdict

    def is_visible(self, source: TransactionName, to: TransactionName) -> bool:
        """Memoized per ``(source, to)``: every ancestor of ``source`` up to
        (but excluding) an ancestor of ``to`` has committed."""
        memo = self._visible_memo
        key = (source, to)
        verdict = memo.get(key)
        if verdict is None:
            if source.is_ancestor_of(to):
                verdict = True
            elif source not in self.committed:
                verdict = False
            else:
                verdict = self.is_visible(source.parent, to)
            memo[key] = verdict
            if self._metrics is not None:
                self._metrics.inc("history.index.visibility.memo_misses")
        elif self._metrics is not None:
            self._metrics.inc("history.index.visibility.memo_hits")
        return verdict

    # -- cached projections ----------------------------------------------------

    def serial_projection(self) -> Behavior:
        """``serial(beta)`` as an index slice (cached)."""
        if self._all_serial:
            return self.behavior
        if self._serial_projection is None:
            behavior = self.behavior
            self._serial_projection = tuple(
                behavior[i] for i in self._serial_positions
            )
        return self._serial_projection

    def project_transaction(self, transaction: TransactionName) -> Behavior:
        """``beta | T`` as an index slice (cached per transaction)."""
        cached = self._transaction_projections.get(transaction)
        if cached is None:
            behavior = self.behavior
            cached = tuple(
                behavior[i] for i in self._by_transaction.get(transaction, ())
            )
            self._transaction_projections[transaction] = cached
        return cached

    def project_object(self, obj: ObjectName) -> Behavior:
        """``beta | X`` as an index slice (cached per object).

        Requires the index to have been built with a ``system_type``.
        """
        if self.system_type is None:
            raise ValueError("HistoryIndex built without a system_type")
        cached = self._object_projections.get(obj)
        if cached is None:
            behavior = self.behavior
            cached = tuple(behavior[i] for i in self._by_object.get(obj, ()))
            self._object_projections[obj] = cached
        return cached

    def visible_projection(self, to: TransactionName = ROOT) -> Behavior:
        """``visible(beta, T)`` (cached per ``to``)."""
        cached = self._visible_projections.get(to)
        if cached is None:
            behavior = self.behavior
            is_visible = self.is_visible
            cached = tuple(
                behavior[i]
                for i in self._serial_positions
                if is_visible(hightransaction(behavior[i]), to)
            )
            self._visible_projections[to] = cached
        return cached

    def clean_projection(self) -> Behavior:
        """``clean(beta)`` (cached)."""
        if self._clean_projection is None:
            behavior = self.behavior
            is_orphan = self.is_orphan
            self._clean_projection = tuple(
                behavior[i]
                for i in self._serial_positions
                if not is_orphan(hightransaction(behavior[i]))
            )
        return self._clean_projection

    # -- dispatch hooks for the events-module helpers -------------------------

    def cached_visible_projection(
        self, behavior: Sequence[Action], to: TransactionName
    ) -> Optional[Behavior]:
        """The cached ``visible(beta, T)`` when this index covers ``behavior``."""
        if not self.covers(behavior):
            return None
        return self.visible_projection(to)

    def cached_clean_projection(
        self, behavior: Sequence[Action]
    ) -> Optional[Behavior]:
        """The cached ``clean(beta)`` when this index covers ``behavior``."""
        if not self.covers(behavior):
            return None
        return self.clean_projection()

    def cached_project_transaction(
        self, behavior: Sequence[Action], transaction: TransactionName
    ) -> Optional[Behavior]:
        """The cached ``beta | T`` when this index covers ``behavior``."""
        if not self.covers(behavior):
            return None
        return self.project_transaction(transaction)

    def cached_project_object(
        self, behavior: Sequence[Action], obj: ObjectName
    ) -> Optional[Behavior]:
        """The cached ``beta | X`` when this index covers ``behavior``."""
        if self.system_type is None or not self.covers(behavior):
            return None
        return self.project_object(obj)

    # -- per-object access sequences -------------------------------------------

    def objects_with_accesses(self) -> Tuple[ObjectName, ...]:
        """Objects with at least one access REQUEST_COMMIT, in name order."""
        return tuple(sorted(self._access_commits))

    def visible_access_commits(
        self, obj: ObjectName
    ) -> List[Tuple[int, TransactionName, Any, Any]]:
        """The access REQUEST_COMMIT events on ``obj`` visible to ``T0``.

        Entries are ``(position, access, op, value)`` in behavior order —
        exactly the per-object operation sequence the ``conflict(beta)``
        relation is defined over.  Cached per object.
        """
        cached = self._visible_access_commits.get(obj)
        if cached is None:
            is_visible = self.is_visible
            cached = [
                entry
                for entry in self._access_commits.get(obj, ())
                if is_visible(entry[1], ROOT)
            ]
            self._visible_access_commits[obj] = cached
        return cached

    def __repr__(self) -> str:
        return (
            f"HistoryIndex(events={len(self.behavior)}, "
            f"transactions={len(self._by_transaction)}, "
            f"objects={len(self._access_commits)})"
        )
