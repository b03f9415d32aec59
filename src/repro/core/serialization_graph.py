"""The serialization graph construction (Sections 4 and 6.1) — the paper's core.

``SG(beta)`` is a union of disjoint directed graphs ``SG(beta, T)``, one
per transaction ``T`` visible to ``T0``; the nodes of ``SG(beta, T)``
are children of ``T`` and the edges record the union of two relations on
siblings:

* ``conflict(beta)`` — ``(T, T')`` when a descendant access of ``T`` and
  a descendant access of ``T'`` performed *conflicting* operations in
  ``visible(beta, T0)``, in that order.  For read/write objects two
  operations conflict unless both are reads; for arbitrary types they
  conflict when they fail to commute backward (Section 6.1) — both cases
  are delegated to the object specification's ``conflicts`` predicate.
* ``precedes(beta)`` — ``(T, T')`` when their common parent saw a report
  for ``T`` before requesting the creation of ``T'``.  These edges
  capture the external-consistency obligations.

Acyclicity of ``SG(beta)`` (plus appropriate return values) is the
sufficient condition for serial correctness (Theorems 8 and 19),
implemented in :mod:`repro.core.correctness`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .actions import (
    Action,
    RequestCommit,
    RequestCreate,
    is_report,
)
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from .events import StatusIndex, visible_projection
from .graph import CycleError, Digraph
from .history import HistoryIndex, spec_is_read_only
from .names import ROOT, ObjectName, SystemType, TransactionName, lca
from .sibling_order import SiblingOrder

__all__ = [
    "CONFLICT",
    "PRECEDES",
    "SiblingEdge",
    "conflict_pairs",
    "precedes_pairs",
    "SerializationGraph",
    "build_serialization_graph",
]

CONFLICT = "conflict"
PRECEDES = "precedes"


@dataclass(frozen=True)
class SiblingEdge:
    """A directed edge of the serialization graph, with provenance."""

    source: TransactionName
    target: TransactionName
    kind: str

    @property
    def parent(self) -> TransactionName:
        return self.source.parent

    def __str__(self) -> str:
        return f"{self.source} -[{self.kind}]-> {self.target}"


def conflict_pairs(
    behavior: Sequence[Action],
    system_type: SystemType,
    index: Optional[StatusIndex] = None,
    indexed: bool = True,
) -> List[SiblingEdge]:
    """The ``conflict(beta)`` sibling relation (Sections 4 / 6.1).

    Scans the access REQUEST_COMMIT events of ``visible(beta, T0)`` in
    order; every conflicting ordered pair of operations on the same
    object contributes an edge between the children of the accesses'
    least common ancestor (unless one access descends from the other, in
    which case no sibling pair exists).

    When ``index`` is a :class:`repro.core.history.HistoryIndex` covering
    ``behavior`` (and ``indexed`` is left on), enumeration runs off the
    index's per-object buckets: read-only runs are never compared against
    each other — only pairs with at least one state-changing operation
    reach the specification — and verdicts come from the index's shared
    :class:`repro.core.history.ConflictCache`.  ``indexed=False`` forces
    the all-pairs scan, kept as the A/B baseline.  An index carrying a
    columnar store (``HistoryIndex(..., columnar=True)``) resolves the
    relation from the dense int columns instead — same edges, one linear
    bitset sweep per read/write object.
    """
    if (
        indexed
        and isinstance(index, HistoryIndex)
        and index.system_type is system_type
        and index.covers(behavior)
    ):
        store = index.columnar
        if store is not None:
            from .columnar import columnar_conflict_edges

            return columnar_conflict_edges(store)
        return _conflict_pairs_indexed(index, system_type)
    index = index if index is not None else StatusIndex(behavior)
    visible = visible_projection(behavior, ROOT, index)
    per_object: Dict[ObjectName, List[Tuple[TransactionName, object, object]]] = {}
    for action in visible:
        if isinstance(action, RequestCommit) and system_type.is_access(
            action.transaction
        ):
            access = system_type.access(action.transaction)
            per_object.setdefault(access.obj, []).append(
                (action.transaction, access.op, action.value)
            )
    edges: Set[SiblingEdge] = set()
    for obj, events in per_object.items():
        spec = system_type.spec(obj)
        for i, (name_i, op_i, value_i) in enumerate(events):
            for name_j, op_j, value_j in events[i + 1 :]:
                if name_i.is_related_to(name_j):
                    continue
                if not spec.conflicts(op_i, value_i, op_j, value_j):
                    continue
                ancestor = lca(name_i, name_j)
                depth = ancestor.depth
                source = TransactionName(name_i.path[: depth + 1])
                target = TransactionName(name_j.path[: depth + 1])
                edges.add(SiblingEdge(source, target, CONFLICT))
    return sorted(edges, key=lambda e: (e.source, e.target))


def _conflict_pairs_indexed(
    index: HistoryIndex, system_type: SystemType
) -> List[SiblingEdge]:
    """Sub-quadratic ``conflict(beta)`` over a covering :class:`HistoryIndex`.

    For each object, classify the visible operations by read-only-ness
    once; a read-only operation is compared only against the *writers*
    after it (a read/read pair never conflicts — both operations preserve
    the state, so they commute backward), while a writer is compared
    against everything after it.  Each surviving pair's verdict is
    memoized in the index's conflict cache.  Read-heavy histories drop
    from O(k²) spec consultations to O(k·w) with ``w`` writers.
    """
    edges: Set[SiblingEdge] = set()
    cache = index.conflict_cache
    checked = 0
    skipped = 0
    for obj in index.objects_with_accesses():
        spec = system_type.spec(obj)
        events = index.visible_access_commits(obj)
        k = len(events)
        if k < 2:
            continue
        read_only = [spec_is_read_only(spec, entry[2]) for entry in events]
        writer_positions = [i for i in range(k) if not read_only[i]]
        compared = 0
        for i in range(k):
            _, name_i, op_i, value_i = events[i]
            if read_only[i]:
                partners = writer_positions[bisect_right(writer_positions, i) :]
            else:
                partners = range(i + 1, k)
            for j in partners:
                compared += 1
                _, name_j, op_j, value_j = events[j]
                if name_i.is_related_to(name_j):
                    continue
                if not cache.conflicts(spec, op_i, value_i, op_j, value_j):
                    continue
                depth = lca(name_i, name_j).depth + 1
                edges.add(
                    SiblingEdge(name_i.prefix(depth), name_j.prefix(depth), CONFLICT)
                )
        checked += compared
        skipped += k * (k - 1) // 2 - compared
    index.record_conflict_metrics(checked, skipped)
    return sorted(edges, key=lambda e: (e.source, e.target))


def precedes_pairs(
    behavior: Sequence[Action],
    index: Optional[StatusIndex] = None,
) -> List[SiblingEdge]:
    """The ``precedes(beta)`` sibling relation (Section 4).

    ``(T, T')`` when the common parent is visible to ``T0`` and a report
    event for ``T`` occurs before a ``REQUEST_CREATE(T')`` in ``beta``.

    A covering :class:`repro.core.history.HistoryIndex` supplies the
    first-report and request-create position maps (grouped by parent), so
    only same-parent candidates are examined; otherwise both maps are
    rebuilt by a scan.
    """
    if isinstance(index, HistoryIndex) and index.covers(behavior):
        store = index.columnar
        if store is not None:
            from .columnar import columnar_precedes_edges

            return columnar_precedes_edges(store)
        first_report = index.first_report
        request_positions = index.request_create_positions
        edges: Set[SiblingEdge] = set()
        for reported, report_position in first_report.items():
            parent = reported.parent
            if not index.is_visible(parent, ROOT):
                continue
            for requested in index.requests_by_parent.get(parent, ()):
                if requested == reported:
                    continue
                if report_position < request_positions[requested]:
                    edges.add(SiblingEdge(reported, requested, PRECEDES))
        return sorted(edges, key=lambda e: (e.source, e.target))
    index = index if index is not None else StatusIndex(behavior)
    first_report = {}
    request_creates: Dict[TransactionName, int] = {}
    for position, action in enumerate(behavior):
        if is_report(action):
            first_report.setdefault(action.transaction, position)
        elif isinstance(action, RequestCreate):
            request_creates.setdefault(action.transaction, position)
    edges = set()
    for reported, report_position in first_report.items():
        parent = reported.parent
        if not index.is_visible(parent, ROOT):
            continue
        for requested, request_position in request_creates.items():
            if requested == reported or requested.is_root:
                continue
            if requested.parent != parent:
                continue
            if report_position < request_position:
                edges.add(SiblingEdge(reported, requested, PRECEDES))
    return sorted(edges, key=lambda e: (e.source, e.target))


class SerializationGraph:
    """``SG(beta)``: one digraph per transaction visible to ``T0``.

    Provides acyclicity checks, cycle extraction for diagnostics, and
    topological sorting into the :class:`SiblingOrder` that the
    correctness theorem's proof (and our constructive witness) uses.
    """

    def __init__(self) -> None:
        self._graphs: Dict[TransactionName, Digraph[TransactionName]] = {}

    def graph_for(self, parent: TransactionName) -> Digraph[TransactionName]:
        """The (created-on-demand) digraph of the sibling group under ``parent``."""
        if parent not in self._graphs:
            self._graphs[parent] = Digraph()
        return self._graphs[parent]

    def peek_group(self, parent: TransactionName) -> Optional[Digraph[TransactionName]]:
        """The sibling group under ``parent`` if it exists, without creating it."""
        return self._graphs.get(parent)

    def add_node(self, node: TransactionName) -> None:
        """Add ``node`` to its parent's sibling group."""
        self.graph_for(node.parent).add_node(node)

    def add_edge(self, edge: SiblingEdge) -> None:
        """Add a labelled sibling edge to its parent's group."""
        self.graph_for(edge.parent).add_edge(edge.source, edge.target, edge.kind)

    def remove_node(self, node: TransactionName) -> None:
        """Remove ``node`` (and incident edges) from its parent's group.

        Part of the online certifier's prefix compaction: a retired
        sibling can be dropped without touching the rest of the group.
        Unknown nodes are a no-op; an emptied group is deleted.
        """
        group = self._graphs.get(node.parent)
        if group is None:
            return
        group.remove_node(node)
        if not len(group):
            del self._graphs[node.parent]

    def drop_group(self, parent: TransactionName) -> None:
        """Delete the whole sibling group under ``parent`` (compaction)."""
        self._graphs.pop(parent, None)

    def parents(self) -> Tuple[TransactionName, ...]:
        """The parents whose sibling groups have nodes or edges, sorted."""
        return tuple(sorted(self._graphs))

    def nodes(self) -> Tuple[TransactionName, ...]:
        """All nodes across all sibling groups."""
        return tuple(
            node for parent in self.parents() for node in self._graphs[parent].nodes()
        )

    def edges(self) -> Iterator[SiblingEdge]:
        """Iterate every edge of every sibling group, with its kind label.

        Labels arrive pre-sorted from :meth:`Digraph.edges` (sorted at
        insert), so iteration does no per-edge sorting.
        """
        for parent in self.parents():
            for src, dst, labels in self._graphs[parent].edges():
                for label in labels or ("",):
                    yield SiblingEdge(src, dst, label)

    def edge_count(self) -> int:
        """Total number of edges across all sibling groups."""
        return sum(g.edge_count() for g in self._graphs.values())

    def is_acyclic(self) -> bool:
        """True iff every sibling group's graph is acyclic."""
        return all(graph.is_acyclic() for graph in self._graphs.values())

    def find_cycle(self) -> Optional[Tuple[TransactionName, List[TransactionName]]]:
        """Return ``(parent, cycle)`` for some cyclic sibling group, or None."""
        for parent in self.parents():
            cycle = self._graphs[parent].find_cycle()
            if cycle is not None:
                return parent, cycle
        return None

    def to_sibling_order(self) -> SiblingOrder:
        """Topologically sort every sibling group into a total order.

        This is the order ``R`` chosen in the proof of Theorem 8.  Raises
        :class:`repro.core.graph.CycleError` when the graph is cyclic.
        """
        order = SiblingOrder()
        for parent in self.parents():
            order.set_order(parent, self._graphs[parent].topological_sort())
        return order

    def to_networkx(self) -> Any:
        """Export the union of all sibling graphs as one networkx DiGraph."""
        import networkx as nx

        graph = nx.DiGraph()
        for parent in self.parents():
            for node in self._graphs[parent].nodes():
                graph.add_node(node, parent=parent)
            for src, dst, labels in self._graphs[parent].edges():
                graph.add_edge(src, dst, kinds=list(labels))
        return graph

    def __repr__(self) -> str:
        return (
            f"SerializationGraph(groups={len(self._graphs)}, "
            f"nodes={len(self.nodes())}, edges={self.edge_count()})"
        )


def build_serialization_graph(
    behavior: Sequence[Action],
    system_type: SystemType,
    index: Optional[StatusIndex] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    indexed: bool = True,
    columnar: bool = False,
) -> SerializationGraph:
    """Construct ``SG(beta)`` from a sequence of serial actions.

    ``behavior`` is typically ``serial(beta)`` of a generic behavior, or
    a simple behavior directly.  Nodes are seeded, in transaction-name
    order, with every child whose creation was requested under a parent
    visible to ``T0``, so that topological sorting yields an order
    covering all relevant siblings, and cycles and orders do not depend
    on hash seeds.

    With no ``index``, one :class:`repro.core.history.HistoryIndex` is
    built here and drives every phase; ``indexed=False`` keeps the naive
    :class:`StatusIndex` scans as the A/B baseline.  ``tracer`` adds
    sub-phase spans (node seeding, conflict and precedes enumeration);
    ``metrics`` records node/edge gauges.  Both default to no-ops.

    ``columnar=True`` builds the graph from the dense-int engine: the
    behavior streams into a :class:`repro.core.columnar.ColumnarHistory`
    (reusing the store on a covering ``HistoryIndex(..., columnar=True)``
    when one is passed) and the returned graph is the lazily-materialised
    :class:`repro.core.columnar.ColumnarSerializationGraph` — identical
    structure, cycles and sibling orders to the object graph.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    if columnar:
        from .columnar import build_columnar_graph

        store = None
        if (
            isinstance(index, HistoryIndex)
            and index.system_type is system_type
            and index.covers(behavior)
        ):
            store = index.columnar
        if store is None:
            store = HistoryIndex(
                behavior, system_type, metrics, columnar=True
            ).columnar
        assert store is not None
        return build_columnar_graph(store, tracer=tracer, metrics=metrics)
    if index is None:
        index = (
            HistoryIndex(behavior, system_type, metrics)
            if indexed
            else StatusIndex(behavior)
        )
    sg = SerializationGraph()
    with tracer.span("sg.seed_nodes"):
        for transaction in sorted(index.create_requested):
            if index.is_visible(transaction.parent, ROOT):
                sg.add_node(transaction)
    with tracer.span("sg.conflict_pairs", events=len(behavior)):
        conflicts = conflict_pairs(behavior, system_type, index, indexed=indexed)
        for edge in conflicts:
            sg.add_edge(edge)
    with tracer.span("sg.precedes_pairs"):
        precedes = precedes_pairs(behavior, index)
        for edge in precedes:
            sg.add_edge(edge)
    if metrics is not None:
        metrics.set_gauge("sg.groups", len(sg.parents()))
        metrics.set_gauge("sg.nodes", len(sg.nodes()))
        metrics.set_gauge("sg.edges", sg.edge_count())
        metrics.inc("sg.edges.conflict", len(conflicts))
        metrics.inc("sg.edges.precedes", len(precedes))
    return sg
