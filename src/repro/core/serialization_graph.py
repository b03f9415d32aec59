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
from .graph import Digraph
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
) -> List[SiblingEdge]:
    """The ``conflict(beta)`` sibling relation (Sections 4 / 6.1).

    Scans the access REQUEST_COMMIT events of ``visible(beta, T0)`` in
    order; every conflicting ordered pair of operations on the same
    object contributes an edge between the children of the accesses'
    least common ancestor (unless one access descends from the other, in
    which case no sibling pair exists).  ``index`` answers visibility;
    one is built when none is passed.
    """
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


def precedes_pairs(
    behavior: Sequence[Action],
    index: Optional[StatusIndex] = None,
) -> List[SiblingEdge]:
    """The ``precedes(beta)`` sibling relation (Section 4).

    ``(T, T')`` when the common parent is visible to ``T0`` and a report
    event for ``T`` occurs before a ``REQUEST_CREATE(T')`` in ``beta``.
    One scan records each child's first report and groups first
    ``REQUEST_CREATE`` positions by parent, so a report is compared only
    with its siblings' requests.  ``index`` answers visibility; one is
    built when none is passed.
    """
    index = index if index is not None else StatusIndex(behavior)
    first_report: Dict[TransactionName, int] = {}
    requests: Dict[TransactionName, Dict[TransactionName, int]] = {}
    for position, action in enumerate(behavior):
        if is_report(action):
            first_report.setdefault(action.transaction, position)
        elif isinstance(action, RequestCreate) and not action.transaction.is_root:
            requested = action.transaction
            requests.setdefault(requested.parent, {}).setdefault(requested, position)
    edges: List[SiblingEdge] = []
    for reported, report_position in first_report.items():
        parent = reported.parent
        if not index.is_visible(parent, ROOT):
            continue
        for requested, request_position in requests.get(parent, {}).items():
            if requested != reported and report_position < request_position:
                edges.append(SiblingEdge(reported, requested, PRECEDES))
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
) -> SerializationGraph:
    """Construct ``SG(beta)`` from a sequence of serial actions.

    ``behavior`` is typically ``serial(beta)`` of a generic behavior, or
    a simple behavior directly.  Nodes are seeded, in transaction-name
    order, with every child whose creation was requested under a parent
    visible to ``T0``, so that topological sorting yields an order
    covering all relevant siblings, and cycles and orders do not depend
    on hash seeds; the edges are :func:`conflict_pairs` then
    :func:`precedes_pairs`.

    ``index`` answers visibility for all three steps; one
    :class:`StatusIndex` is built when none is passed.  ``tracer`` adds
    sub-phase spans (node seeding, conflict and precedes enumeration);
    ``metrics`` records node/edge gauges.  Both default to no-ops.
    :func:`repro.core.columnar.build_columnar_graph` builds the same
    graph on the batch engine's dense ids.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    index = index if index is not None else StatusIndex(behavior)
    sg = SerializationGraph()
    with tracer.span("sg.seed_nodes"):
        for transaction in sorted(index.create_requested):
            if index.is_visible(transaction.parent, ROOT):
                sg.add_node(transaction)
    with tracer.span("sg.conflict_pairs", events=len(behavior)):
        conflicts = conflict_pairs(behavior, system_type, index)
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
