"""Columnar history engine: dense ints, struct-of-arrays, bitset visibility.

:class:`repro.core.history.HistoryIndex` (PR 3) centralised every scan a
certifier needs, but the representation underneath it is still one
Python object per event, walked through dict and tuple lookups.  This
module changes the representation without changing any answer:

* **Append-time interning.**  Transaction names, objects and operation
  classes are interned to dense ints as events arrive; parents are
  interned before children, so every derived relation can run a single
  forward pass over ids.  Operation classes — ``(op descriptor, value)``
  pairs — share the :class:`repro.core.history.ConflictCache` interner,
  so the memoized conflict verdicts are keyed by exactly the ints the
  event columns store.
* **Struct-of-arrays storage.**  The history is parallel ``array('q')``
  columns (event kind, transaction id; per object: position,
  transaction id, operation class id) instead of a list of action
  objects.  :meth:`ColumnarHistory.append` accepts a lazy event stream —
  nothing requires a materialised behavior.
* **Flag-byte visibility and orphans.**  Commit and abort status are one
  byte per transaction id, set in O(1) per event.  ``visible(·, T0)``
  membership and the orphan set are computed in one forward pass over
  transaction ids (parents first) into flat flag bytes for O(1) point
  queries, with Python-int bitset views on demand.
* **Linear conflict enumeration.**  For read/write-structured specs
  (``conflicts_iff_writer``) each object is resolved in one pass: two
  running bitsets over top-level transactions (any-access, writer) give
  every cross-top conflict edge by bitwise OR, with the writer-boundary
  skip expressed on the operation-class column; nested same-top pairs
  fall out of tiny per-top buckets via dense id-chain LCA.  Generic
  specs keep the writer-boundary pair scan, but over int columns with
  :meth:`repro.core.history.ConflictCache.conflicts_ids` verdicts.

The object API stays a *view layer*: :class:`TransactionName` and
operation objects are materialised only at the boundary — cycle
witnesses, ARV diagnostics, sibling-edge provenance, the sibling order
handed to callers.  In particular :class:`ColumnarSerializationGraph`
answers ``find_cycle`` by a dense DFS and ``to_sibling_order`` by a
dense Kahn sort, each replicating the object graph's traversal order
exactly, and only builds the real per-group
:class:`repro.core.graph.Digraph` structures when a caller walks
nodes/edges or mutates the graph.

This is the batch engine: :func:`repro.core.correctness.certify` streams
its input into a :class:`ColumnarHistory` and runs every phase on it,
the witness phase's order and build included, and
:func:`repro.core.explain.explain_behavior` takes its graph and cycle
from it.  Verdicts, ARVs, cycles and witnesses equal those of the
paper-definition phase functions on the object representation (asserted
by the equivalence and mutation suites).  Metrics appear under
``history.columnar.*`` (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from .actions import (
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
from .history import ConflictCache, spec_is_read_only
from .names import ROOT, ObjectName, SystemType, TransactionName
from .return_values import ReturnValueViolation
from .graph import CycleError, Digraph
from .serialization_graph import (
    CONFLICT,
    PRECEDES,
    SerializationGraph,
    SiblingEdge,
)
from .sibling_order import SiblingOrder

__all__ = [
    "ColumnarHistory",
    "action_kind",
    "ColumnarSerializationGraph",
    "build_columnar_graph",
    "columnar_arv_violations",
]

# Event kind codes for the kind column; one small int per serial action
# class.  Inform actions are non-serial and never enter the columns.
K_CREATE = 0
K_REQUEST_CREATE = 1
K_REQUEST_COMMIT = 2
K_COMMIT = 3
K_ABORT = 4
K_REPORT_COMMIT = 5
K_REPORT_ABORT = 6

_KIND_OF: Dict[Type[Action], int] = {
    Create: K_CREATE,
    RequestCreate: K_REQUEST_CREATE,
    RequestCommit: K_REQUEST_COMMIT,
    Commit: K_COMMIT,
    Abort: K_ABORT,
    ReportCommit: K_REPORT_COMMIT,
    ReportAbort: K_REPORT_ABORT,
}


def action_kind(action: Action) -> Optional[int]:
    """The kind code of a serial action; None for a non-serial one."""
    kind = _KIND_OF.get(type(action))
    if kind is None and is_serial_action(action):
        # subclassed action types: resolve through isinstance
        for action_type, code in _KIND_OF.items():
            if isinstance(action, action_type):
                return code
    return kind


def _pack_bits(flags: Sequence[int]) -> int:
    """The bitset int whose bit ``i`` is set iff ``flags[i]`` is truthy."""
    packed = bytearray((len(flags) + 7) // 8)
    for position, flag in enumerate(flags):
        if flag:
            packed[position >> 3] |= 1 << (position & 7)
    return int.from_bytes(bytes(packed), "little")


class ColumnarHistory:
    """Struct-of-arrays history with dense ids and flag-byte derived state.

    Feed events through :meth:`append` (accepts any iterable order the
    behavior arrives in; non-serial actions are dropped, mirroring
    ``serial(beta)``), then query the derived columns.  ``system_type``
    is required for object columns (conflicts, ARVs); without it only
    the transaction-level machinery is available.
    """

    def __init__(
        self,
        system_type: Optional[SystemType] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.system_type = system_type
        self._metrics = metrics
        self.cache = ConflictCache()
        self.events = 0
        # -- transaction interning (parent id < child id, root is 0) -----
        self._txn_ids: Dict[TransactionName, int] = {}
        self.txn_names: List[TransactionName] = []
        self.txn_parent = array("q")
        #: dense ancestor chain per transaction: ids at depth 1..depth(T)
        self._txn_chains: List[Tuple[int, ...]] = []
        #: object id per access leaf, -1 for non-accesses
        self._txn_obj = array("q")
        #: op descriptor per access leaf, None for non-accesses
        self._txn_op: List[Any] = []
        # -- object interning --------------------------------------------
        self._obj_ids: Dict[ObjectName, int] = {}
        self.obj_names: List[ObjectName] = []
        # -- the event log: parallel int columns -------------------------
        self.ev_kind = array("q")
        self.ev_txn = array("q")
        # -- completion status: one 0/1 byte per transaction id ----------
        self._committed = bytearray()
        self._aborted = bytearray()
        # -- per-object access REQUEST_COMMIT columns --------------------
        self.acc_pos: List["array[int]"] = []
        self.acc_txn: List["array[int]"] = []
        self.acc_cls: List["array[int]"] = []
        # -- precedes inputs, in dense ids / event positions -------------
        self.first_report_pos: Dict[int, int] = {}
        self.request_pos: Dict[int, int] = {}
        self.requests_by_parent: Dict[int, List[int]] = {}
        #: transaction ids in first-REQUEST_CREATE order (node seeding)
        self.request_order: List[int] = []
        # -- lazily derived state ----------------------------------------
        self._visible_bits: Optional[int] = None
        self._visible_flags: Optional[bytes] = None
        self._orphan_bits: Optional[int] = None
        self._orphan_flags: Optional[bytes] = None
        self._rank: Optional[List[int]] = None
        self.intern(ROOT)

    # -- interning ---------------------------------------------------------

    def intern(self, name: TransactionName) -> int:
        """The dense id of ``name``, interning its ancestors first."""
        dense = self._txn_ids.get(name)
        if dense is None:
            parent_id = -1 if name.is_root else self.intern(name.parent)
            dense = len(self.txn_names)
            self._txn_ids[name] = dense
            self.txn_names.append(name)
            self._rank = None
            self.txn_parent.append(parent_id)
            self._committed.append(0)
            self._aborted.append(0)
            if parent_id < 0:
                self._txn_chains.append(())
            else:
                self._txn_chains.append(self._txn_chains[parent_id] + (dense,))
            system_type = self.system_type
            if system_type is not None and system_type.is_access(name):
                access = system_type.access(name)
                self._txn_obj.append(self._intern_object(access.obj))
                self._txn_op.append(access.op)
            else:
                self._txn_obj.append(-1)
                self._txn_op.append(None)
        return dense

    def chain(self, dense: int) -> Tuple[int, ...]:
        """The ancestor chain of ``dense``: ids at depth 1..depth(T)."""
        return self._txn_chains[dense]

    def txn_id_of(self, name: TransactionName) -> Optional[int]:
        """The dense id of ``name`` if it was interned, else None."""
        return self._txn_ids.get(name)

    def _intern_object(self, obj: ObjectName) -> int:
        oid = self._obj_ids.get(obj)
        if oid is None:
            oid = len(self.obj_names)
            self._obj_ids[obj] = oid
            self.obj_names.append(obj)
            self.acc_pos.append(array("q"))
            self.acc_txn.append(array("q"))
            self.acc_cls.append(array("q"))
        return oid

    # -- ingestion ---------------------------------------------------------

    def append(self, action: Action) -> bool:
        """Fold one action into the columns; True iff it was serial."""
        kind = action_kind(action)
        if kind is None:
            return False
        dense = self.intern(action.transaction)
        position = self.events
        self.events = position + 1
        self.ev_kind.append(kind)
        self.ev_txn.append(dense)
        self._visible_bits = self._visible_flags = None
        self._orphan_bits = self._orphan_flags = None
        if kind == K_REQUEST_COMMIT:
            oid = self._txn_obj[dense]
            if oid >= 0:
                cls = self.cache.operation_id(self._txn_op[dense], action.value)
                self.acc_pos[oid].append(position)
                self.acc_txn[oid].append(dense)
                self.acc_cls[oid].append(cls)
        elif kind == K_COMMIT:
            self._committed[dense] = 1
        elif kind == K_ABORT:
            self._aborted[dense] = 1
        elif kind == K_REQUEST_CREATE:
            if dense not in self.request_pos:
                self.request_pos[dense] = position
                self.request_order.append(dense)
                self.requests_by_parent.setdefault(
                    self.txn_parent[dense], []
                ).append(dense)
        elif kind != K_CREATE:  # K_REPORT_COMMIT / K_REPORT_ABORT
            self.first_report_pos.setdefault(dense, position)
        return True

    def extend(self, behavior: Iterable[Action]) -> int:
        """Append a whole (possibly lazy) event stream; serial count."""
        count = 0
        for action in behavior:
            if self.append(action):
                count += 1
        return count

    # -- derived visibility state -------------------------------------------

    def visible_bits(self) -> int:
        """Bitset: bit ``t`` set iff transaction ``t`` is visible to T0."""
        if self._visible_bits is None:
            self._visible_bits = _pack_bits(self.visible_flags())
        return self._visible_bits

    def visible_flags(self) -> bytes:
        """Flat 0/1 byte per transaction id: visible to T0?

        One forward pass: ids are allocated parents-first, so
        ``visible(T) = committed(T) and visible(parent(T))`` resolves in
        id order with no recursion (``T0`` itself is visible).
        """
        flags = self._visible_flags
        if flags is None:
            count = len(self.txn_names)
            committed = self._committed
            parent = self.txn_parent
            out = bytearray(count)
            out[0] = 1
            for dense in range(1, count):
                if committed[dense] and out[parent[dense]]:
                    out[dense] = 1
            flags = bytes(out)
            self._visible_flags = flags
        return flags

    def orphan_bits(self) -> int:
        """Bitset: bit ``t`` set iff some ancestor of ``t`` aborted."""
        if self._orphan_bits is None:
            self._orphan_bits = _pack_bits(self.orphan_flags())
        return self._orphan_bits

    def orphan_flags(self) -> bytes:
        """Flat 0/1 byte per transaction id: is the transaction an orphan?"""
        flags = self._orphan_flags
        if flags is None:
            count = len(self.txn_names)
            aborted = self._aborted
            parent = self.txn_parent
            out = bytearray(count)
            for dense in range(1, count):
                if aborted[dense] or out[parent[dense]]:
                    out[dense] = 1
            flags = bytes(out)
            self._orphan_flags = flags
        return flags

    def name_rank(self) -> List[int]:
        """Rank of each dense id under TransactionName sort order.

        Lets dense edge lists sort by int keys while reproducing exactly
        the ``(source, target)`` name ordering of the object builder.
        Names order by their paths, so the sort compares the paths in C
        rather than calling the names' Python-level ``__lt__``.
        """
        rank = self._rank
        if rank is None:
            paths = [name.path for name in self.txn_names]
            order = sorted(range(len(paths)), key=paths.__getitem__)
            rank = [0] * len(order)
            for position, dense in enumerate(order):
                rank[dense] = position
            self._rank = rank
        return rank

    # -- conflict / precedes enumeration over int columns ------------------

    def conflict_edge_ids(self) -> List[Tuple[int, int]]:
        """The deduplicated ``conflict(beta)`` edges as dense id pairs.

        Per object: read/write-structured specs resolve in one linear
        bitset sweep; generic specs run the writer-boundary pair scan
        with id-keyed memoized verdicts.  Order is unspecified (callers
        sort by :meth:`name_rank`).
        """
        system_type = self.system_type
        if system_type is None:
            raise ValueError("ColumnarHistory built without a system_type")
        visible = self.visible_flags()
        edges: Set[Tuple[int, int]] = set()
        checked = 0
        skipped = 0
        bitset_pairs = 0
        payload = self.cache.operation_payload
        for oid, obj in enumerate(self.obj_names):
            spec = system_type.spec(obj)
            txn_col = self.acc_txn[oid]
            cls_col = self.acc_cls[oid]
            tids: List[int] = []
            clss: List[int] = []
            for row in range(len(txn_col)):
                dense = txn_col[row]
                if visible[dense]:
                    tids.append(dense)
                    clss.append(cls_col[row])
            k = len(tids)
            if k < 2:
                continue
            read_only: List[bool] = []
            ro_by_cls: Dict[int, bool] = {}
            for cls in clss:
                flag = ro_by_cls.get(cls)
                if flag is None:
                    flag = spec_is_read_only(spec, payload(cls)[0])
                    ro_by_cls[cls] = flag
                read_only.append(flag)
            if getattr(spec, "conflicts_iff_writer", False):
                self._rw_bitset_edges(tids, read_only, edges)
                bitset_pairs += k * (k - 1) // 2
                continue
            sid = self.cache.spec_id(spec)
            conflicts_ids = self.cache.conflicts_ids
            chains = self._txn_chains
            writer_positions = [i for i in range(k) if not read_only[i]]
            compared = 0
            for i in range(k):
                tid_i = tids[i]
                cls_i = clss[i]
                if read_only[i]:
                    partners: Sequence[int] = writer_positions[
                        bisect_right(writer_positions, i):
                    ]
                else:
                    partners = range(i + 1, k)
                for j in partners:
                    compared += 1
                    tid_j = tids[j]
                    if tid_i == tid_j:
                        continue  # same access leaf: ancestor-related
                    if not conflicts_ids(sid, cls_i, clss[j]):
                        continue
                    chain_i = chains[tid_i]
                    chain_j = chains[tid_j]
                    depth = 0
                    limit = min(len(chain_i), len(chain_j))
                    while depth < limit and chain_i[depth] == chain_j[depth]:
                        depth += 1
                    if depth == limit:
                        continue  # one access under the other: no siblings
                    edges.add((chain_i[depth], chain_j[depth]))
            checked += compared
            skipped += k * (k - 1) // 2 - compared
        if self._metrics is not None:
            metrics = self._metrics
            metrics.inc("history.columnar.conflict.pairs_bitset", bitset_pairs)
            metrics.inc("history.columnar.conflict.pairs_checked", checked)
            metrics.inc(
                "history.columnar.conflict.pairs_skipped_read_runs", skipped
            )
            metrics.inc("history.columnar.conflict.edges", len(edges))
            metrics.set_gauge(
                "history.columnar.conflict.cache_size", len(self.cache)
            )
        return list(edges)

    def _rw_bitset_edges(
        self,
        tids: Sequence[int],
        read_only: Sequence[bool],
        edges: Set[Tuple[int, int]],
    ) -> None:
        """One-pass conflict edges for a writer-structured object.

        ``any_tops``/``writer_tops`` are bitsets over the object's
        *top-level* transactions, ranked by first access (so a bitset is
        as wide as the tops touching this object, not as the whole log),
        accumulating the tops with a prior access / prior writer.  Each
        event ORs the appropriate partner mask into its top's incoming
        set — that covers every cross-top ordered pair with a writer.
        Same-top (nested) pairs are resolved pairwise from small per-top
        buckets via the dense ancestor chains.
        """
        chains = self._txn_chains
        any_tops = 0
        writer_tops = 0
        #: the object's tops in first-access order: bit ``r`` is ``tops[r]``
        tops: List[int] = []
        top_rank: Dict[int, int] = {}
        rank_of: Dict[int, int] = {}  # access leaf -> its top's rank
        buckets: List[List[Tuple[int, bool]]] = []
        incoming: Dict[int, int] = {}
        for row, dense in enumerate(tids):
            is_read = read_only[row]
            rank = rank_of.get(dense)
            if rank is None:
                top = chains[dense][0]
                rank = top_rank.get(top)
                if rank is None:
                    rank = top_rank[top] = len(tops)
                    tops.append(top)
                    buckets.append([])
                rank_of[dense] = rank
            partners = writer_tops if is_read else any_tops
            if partners:
                incoming[rank] = incoming.get(rank, 0) | partners
            bucket = buckets[rank]
            if bucket:
                chain = chains[dense]
                for prior, prior_read in bucket:
                    if prior == dense or (prior_read and is_read):
                        continue
                    prior_chain = chains[prior]
                    depth = 1  # index 0 is the shared top
                    limit = min(len(prior_chain), len(chain))
                    while depth < limit and prior_chain[depth] == chain[depth]:
                        depth += 1
                    if depth == limit:
                        continue  # ancestor-related accesses: no siblings
                    edges.add((prior_chain[depth], chain[depth]))
            bucket.append((dense, is_read))
            bit = 1 << rank
            any_tops |= bit
            if not is_read:
                writer_tops |= bit
        for rank, bits in incoming.items():
            top = tops[rank]
            bits &= ~(1 << rank)
            while bits:
                low = bits & -bits
                edges.add((tops[low.bit_length() - 1], top))
                bits ^= low

    def precedes_edge_ids(self) -> List[Tuple[int, int]]:
        """The ``precedes(beta)`` edges as dense id pairs (unordered)."""
        visible = self.visible_flags()
        parent = self.txn_parent
        request_pos = self.request_pos
        edges: List[Tuple[int, int]] = []
        for reported, report_position in self.first_report_pos.items():
            group = parent[reported]
            if not visible[group]:
                continue
            for requested in self.requests_by_parent.get(group, ()):
                if requested == reported:
                    continue
                if report_position < request_pos[requested]:
                    edges.append((reported, requested))
        return edges

    # -- metrics -----------------------------------------------------------

    def record_build_metrics(self) -> None:
        """Fold the build into the registry (if any)."""
        if self._metrics is None:
            return
        metrics = self._metrics
        metrics.inc("history.columnar.builds")
        metrics.inc("history.columnar.events", self.events)
        metrics.set_gauge("history.columnar.transactions", len(self.txn_names))
        metrics.set_gauge("history.columnar.objects", len(self.obj_names))
        metrics.set_gauge(
            "history.columnar.operation_classes", self.cache.operation_count()
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarHistory(events={self.events}, "
            f"transactions={len(self.txn_names)}, "
            f"objects={len(self.obj_names)})"
        )


# ---------------------------------------------------------------------------
# Object-boundary views: ARV diagnostics
# ---------------------------------------------------------------------------


def columnar_arv_violations(
    store: ColumnarHistory,
) -> List[ReturnValueViolation]:
    """Appropriate-return-value check straight off the columns.

    Replays each object's *visible* operation-class column against the
    spec's ``apply`` protocol; diagnostics (names, reason strings) are
    identical to :func:`repro.core.return_values.check_appropriate_return_values`.
    """
    system_type = store.system_type
    if system_type is None:
        raise ValueError("ColumnarHistory built without a system_type")
    visible = store.visible_flags()
    payload = store.cache.operation_payload
    names = store.txn_names
    violations: List[ReturnValueViolation] = []
    for obj in system_type.object_names():
        oid = store._obj_ids.get(obj)
        if oid is None:
            continue  # no accesses: the empty sequence is trivially legal
        spec = system_type.spec(obj)
        txn_col = store.acc_txn[oid]
        cls_col = store.acc_cls[oid]
        apply = getattr(spec, "apply", None)
        if apply is None:
            # is_legal-only specs: prefix replays, as in the object check
            rows = [
                (names[txn_col[row]], payload(cls_col[row]))
                for row in range(len(txn_col))
                if visible[txn_col[row]]
            ]
            pairs = [pair for _, pair in rows]
            for cut in range(1, len(pairs) + 1):
                if not spec.is_legal(pairs[:cut]):
                    violations.append(
                        ReturnValueViolation(
                            obj,
                            rows[cut - 1][0],
                            f"operation {pairs[cut - 1]!r} is illegal after "
                            f"{cut - 1} visible operation(s)",
                        )
                    )
                    break
            continue
        state = spec.initial
        position = 0
        for row in range(len(txn_col)):
            dense = txn_col[row]
            if not visible[dense]:
                continue
            op, value = payload(cls_col[row])
            state, expected = apply(state, op)
            if value != expected:
                violations.append(
                    ReturnValueViolation(
                        obj,
                        names[dense],
                        f"operation {(op, value)!r} is illegal after "
                        f"{position} visible operation(s)",
                    )
                )
                break
            position += 1
    return violations


# ---------------------------------------------------------------------------
# The lazy serialization graph
# ---------------------------------------------------------------------------


class ColumnarSerializationGraph(SerializationGraph):
    """``SG(beta)`` over dense ids with on-demand object materialisation.

    The structural queries the certifier needs — the cycle search and
    the topological sort into a sibling order — run directly on int
    adjacency lists built to replicate the object
    :class:`SerializationGraph`'s insertion order exactly (seeded nodes,
    then conflict edges in name order, then precedes edges in name
    order), so they return the *same* cycle and the *same* per-group
    orders the object graph would (:meth:`sibling_order_ids` hands the
    orders to the witness builder as ids).  Any richer access (nodes,
    edges, mutation) first materialises the real per-group digraphs from
    the same dense data, after which this behaves exactly like its base
    class.
    """

    def __init__(
        self,
        store: ColumnarHistory,
        seed_ids: Sequence[int],
        conflict_ids: Sequence[Tuple[int, int]],
        precedes_ids: Sequence[Tuple[int, int]],
    ) -> None:
        super().__init__()
        self._store = store
        self._seed_ids = list(seed_ids)
        self._conflict_ids = list(conflict_ids)
        self._precedes_ids = list(precedes_ids)
        self._materialized = False
        self._order_ids: Optional[Dict[int, List[int]]] = None
        # dense adjacency in first-insertion order, as Digraph would see it
        self._dense_groups: Dict[int, List[int]] = {}
        self._dense_nodes: Set[int] = set()
        self._dense_succ: Dict[int, List[int]] = {}
        self._dense_succ_seen: Dict[int, Set[int]] = {}
        parent = store.txn_parent
        touch = self._touch
        for dense in self._seed_ids:
            touch(parent, dense)
        for source, target in self._conflict_ids:
            touch(parent, source)
            touch(parent, target)
            seen = self._dense_succ_seen[source]
            if target not in seen:
                seen.add(target)
                self._dense_succ[source].append(target)
        for source, target in self._precedes_ids:
            touch(parent, source)
            touch(parent, target)
            seen = self._dense_succ_seen[source]
            if target not in seen:
                seen.add(target)
                self._dense_succ[source].append(target)

    def _touch(self, parent: "array[int]", dense: int) -> None:
        if dense not in self._dense_nodes:
            self._dense_nodes.add(dense)
            self._dense_groups.setdefault(parent[dense], []).append(dense)
            self._dense_succ[dense] = []
            self._dense_succ_seen[dense] = set()

    # -- dense structural counts (no materialisation) ----------------------

    def dense_group_count(self) -> int:
        return len(self._dense_groups)

    def dense_node_count(self) -> int:
        return len(self._dense_nodes)

    def dense_edge_count(self) -> int:
        """Distinct (source, target) pairs — labels merged, like Digraph."""
        return sum(len(succ) for succ in self._dense_succ.values())

    # -- materialisation ---------------------------------------------------

    def _ensure(self) -> None:
        """Populate the object digraphs from the dense data, once.

        Insertion order replicates the object builder exactly: seed nodes
        first, then conflict edges (already in name order), then
        precedes edges — so topological sorts and witnesses agree.
        """
        if self._materialized:
            return
        self._materialized = True
        names = self._store.txn_names
        for dense in self._seed_ids:
            super().add_node(names[dense])
        for source, target in self._conflict_ids:
            super().add_edge(SiblingEdge(names[source], names[target], CONFLICT))
        for source, target in self._precedes_ids:
            super().add_edge(SiblingEdge(names[source], names[target], PRECEDES))

    # -- cycle search over int columns -------------------------------------

    def find_cycle(
        self,
    ) -> Optional[Tuple[TransactionName, List[TransactionName]]]:
        if self._materialized:
            return super().find_cycle()
        names = self._store.txn_names
        rank = self._store.name_rank()
        for group in sorted(self._dense_groups, key=rank.__getitem__):
            cycle = self._dense_group_cycle(group)
            if cycle is not None:
                return names[group], [names[dense] for dense in cycle]
        return None

    def _dense_group_cycle(self, group: int) -> Optional[List[int]]:
        """Digraph.find_cycle transliterated onto the dense adjacency."""
        succ = self._dense_succ
        nodes = self._dense_groups[group]
        WHITE, GREY = 0, 1
        colour = {dense: WHITE for dense in nodes}
        parent: Dict[int, Optional[int]] = {}
        for root in nodes:
            if colour[root] != WHITE:
                continue
            stack: List[Tuple[int, Iterator[int]]] = [(root, iter(succ[root]))]
            colour[root] = GREY
            parent[root] = None
            while stack:
                node, targets = stack[-1]
                advanced = False
                for target in targets:
                    if colour[target] == WHITE:
                        colour[target] = GREY
                        parent[target] = node
                        stack.append((target, iter(succ[target])))
                        advanced = True
                        break
                    if colour[target] == GREY:
                        cycle = [node]
                        current: Optional[int] = node
                        while current != target:
                            current = parent[current]  # type: ignore[index]
                            assert current is not None
                            cycle.append(current)
                        cycle.reverse()
                        cycle.append(cycle[0])
                        return cycle
                if not advanced:
                    colour[node] = 2  # BLACK
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        if self._materialized:
            return super().is_acyclic()
        return self.find_cycle() is None

    # -- everything else materialises first --------------------------------

    def graph_for(self, parent: TransactionName) -> Digraph[TransactionName]:
        self._ensure()
        return super().graph_for(parent)

    def peek_group(
        self, parent: TransactionName
    ) -> Optional[Digraph[TransactionName]]:
        self._ensure()
        return super().peek_group(parent)

    def add_node(self, node: TransactionName) -> None:
        self._ensure()
        super().add_node(node)

    def add_edge(self, edge: SiblingEdge) -> None:
        self._ensure()
        super().add_edge(edge)

    def parents(self) -> Tuple[TransactionName, ...]:
        self._ensure()
        return super().parents()

    def nodes(self) -> Tuple[TransactionName, ...]:
        self._ensure()
        return super().nodes()

    def edges(self) -> Iterator[SiblingEdge]:
        self._ensure()
        return super().edges()

    def edge_count(self) -> int:
        if self._materialized:
            return super().edge_count()
        return self.dense_edge_count()

    def to_sibling_order(self) -> SiblingOrder:
        if self._materialized:
            return super().to_sibling_order()
        names = self._store.txn_names
        order = SiblingOrder()
        for group, ids in self.sibling_order_ids().items():
            order.set_order(names[group], [names[dense] for dense in ids])
        return order

    def sibling_order_ids(self) -> Dict[int, List[int]]:
        """The sibling order ``R`` over dense ids: group id -> sorted ids.

        Kahn's algorithm per group over the dense adjacency,
        transliterating :meth:`Digraph.topological_sort`: the ready list
        starts with the group's zero-indegree nodes in insertion order
        and newly freed nodes join at its back, so each group's order is
        the one the materialised digraph would give.  Groups appear in
        parent-name order, as in :meth:`parents`.  A cyclic group raises
        :class:`repro.core.graph.CycleError` with the cycle the object
        graph reports.  Computed once, for the graph as built:
        :meth:`to_sibling_order` sorts a materialised graph (which may
        have been mutated since) through the base class instead.
        """
        if self._order_ids is not None:
            return self._order_ids
        succ = self._dense_succ
        names = self._store.txn_names
        indegree = [0] * len(names)
        for targets in succ.values():
            for target in targets:
                indegree[target] += 1
        orders: Dict[int, List[int]] = {}
        rank = self._store.name_rank()
        for group in sorted(self._dense_groups, key=rank.__getitem__):
            nodes = self._dense_groups[group]
            ready = [dense for dense in nodes if not indegree[dense]]
            position = 0
            while position < len(ready):
                node = ready[position]
                position += 1
                for target in succ[node]:
                    indegree[target] -= 1
                    if not indegree[target]:
                        ready.append(target)
            if len(ready) != len(nodes):
                cycle = self._dense_group_cycle(group)
                assert cycle is not None
                raise CycleError([names[dense] for dense in cycle])
            orders[group] = ready
        self._order_ids = orders
        return orders

    def to_networkx(self) -> Any:
        self._ensure()
        return super().to_networkx()

    def __repr__(self) -> str:
        return (
            f"SerializationGraph(groups={self.dense_group_count()}, "
            f"nodes={self.dense_node_count()}, "
            f"edges={self.dense_edge_count()})"
        )


def build_columnar_graph(
    store: ColumnarHistory,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ColumnarSerializationGraph:
    """Construct ``SG(beta)`` from a populated :class:`ColumnarHistory`.

    Node seeding, edge enumeration and ordering replicate
    :func:`repro.core.serialization_graph.build_serialization_graph`
    over the same behavior, span names and metrics included.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    visible = store.visible_flags()
    parent = store.txn_parent
    rank = store.name_rank()
    width = len(rank)
    with tracer.span("sg.seed_nodes"):
        # transaction-name order, as the object builder seeds
        seed_ids = sorted(
            (dense for dense in store.request_order if visible[parent[dense]]),
            key=rank.__getitem__,
        )
    with tracer.span("sg.conflict_pairs", events=store.events):
        conflict_ids = store.conflict_edge_ids()
    with tracer.span("sg.precedes_pairs"):
        precedes_ids = store.precedes_edge_ids()

    def edge_key(edge: Tuple[int, int]) -> int:
        return rank[edge[0]] * width + rank[edge[1]]

    conflict_ids.sort(key=edge_key)
    precedes_ids.sort(key=edge_key)
    graph = ColumnarSerializationGraph(store, seed_ids, conflict_ids, precedes_ids)
    if metrics is not None:
        metrics.set_gauge("sg.groups", graph.dense_group_count())
        metrics.set_gauge("sg.nodes", graph.dense_node_count())
        metrics.set_gauge("sg.edges", graph.dense_edge_count())
        metrics.inc("sg.edges.conflict", len(conflict_ids))
        metrics.inc("sg.edges.precedes", len(precedes_ids))
    return graph
