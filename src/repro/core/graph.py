"""A small directed graph with labelled edges, cycle detection and toposort.

The serialization graph construction needs only a handful of graph
operations; implementing them here keeps the core dependency-free.  A
:meth:`Digraph.to_networkx` export is provided for users who want to
draw or further analyse the graphs (networkx is an optional import).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

__all__ = ["Digraph", "CycleError", "IncrementalTopology"]

N = TypeVar("N", bound=Hashable)


class CycleError(ValueError):
    """Raised when a topological sort is requested on a cyclic graph."""

    def __init__(self, cycle: List[Any]) -> None:
        super().__init__(f"graph contains a cycle: {' -> '.join(map(str, cycle))}")
        self.cycle = cycle


class Digraph(Generic[N]):
    """A directed graph whose edges carry a set of string labels.

    Labels are kept as sorted tuples, maintained at insert time — label
    sets per edge are tiny (one or two kinds) and read far more often
    than written, so iteration never re-sorts.
    """

    def __init__(self) -> None:
        self._succ: Dict[N, Dict[N, Tuple[str, ...]]] = {}
        self._pred: Dict[N, Set[N]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: N) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = set()

    def add_edge(self, src: N, dst: N, label: str = "") -> None:
        """Add an edge; parallel labels accumulate on the same edge."""
        self.add_node(src)
        self.add_node(dst)
        labels = self._succ[src].get(dst, ())
        if label and label not in labels:
            labels = tuple(sorted(labels + (label,)))
        self._succ[src][dst] = labels
        self._pred[dst].add(src)

    # -- inspection ----------------------------------------------------------

    def nodes(self) -> Tuple[N, ...]:
        return tuple(self._succ)

    def edges(self) -> Iterator[Tuple[N, N, Tuple[str, ...]]]:
        """Yield ``(src, dst, labels)``; labels are an already-sorted tuple."""
        for src, targets in self._succ.items():
            yield from ((src, dst, labels) for dst, labels in targets.items())

    def has_edge(self, src: N, dst: N) -> bool:
        return src in self._succ and dst in self._succ[src]

    def edge_labels(self, src: N, dst: N) -> FrozenSet[str]:
        return frozenset(self._succ[src][dst])

    def successors(self, node: N) -> Tuple[N, ...]:
        return tuple(self._succ.get(node, ()))

    def predecessors(self, node: N) -> Tuple[N, ...]:
        return tuple(self._pred.get(node, ()))

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: object) -> bool:
        return node in self._succ

    def edge_count(self) -> int:
        return sum(len(t) for t in self._succ.values())

    # -- algorithms ------------------------------------------------------------

    def find_cycle(self) -> Optional[List[N]]:
        """Return some cycle as a node list (first node repeated last), or None.

        Iterative colouring DFS; deterministic given insertion order.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[N, int] = {node: WHITE for node in self._succ}
        parent: Dict[N, Optional[N]] = {}
        for root in self._succ:
            if colour[root] != WHITE:
                continue
            stack: List[Tuple[N, Iterator[N]]] = [(root, iter(self._succ[root]))]
            colour[root] = GREY
            parent[root] = None
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if colour[succ] == WHITE:
                        colour[succ] = GREY
                        parent[succ] = node
                        stack.append((succ, iter(self._succ[succ])))
                        advanced = True
                        break
                    if colour[succ] == GREY:
                        # Found a back edge node -> succ; reconstruct the cycle.
                        cycle = [node]
                        current = node
                        while current != succ:
                            current = parent[current]  # type: ignore[assignment]
                            cycle.append(current)
                        cycle.reverse()
                        cycle.append(cycle[0])
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def topological_sort(self) -> List[N]:
        """Kahn's algorithm; stable with respect to node insertion order.

        Raises :class:`CycleError` if the graph has a cycle.
        """
        indegree: Dict[N, int] = {node: 0 for node in self._succ}
        for _, dst, __ in self.edges():
            indegree[dst] += 1
        ready = [node for node in self._succ if indegree[node] == 0]
        order: List[N] = []
        position = 0
        while position < len(ready):
            node = ready[position]
            position += 1
            order.append(node)
            for succ in self._succ[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._succ):
            cycle = self.find_cycle()
            assert cycle is not None
            raise CycleError(cycle)
        return order

    def reachable_from(self, node: N) -> Set[N]:
        """All nodes reachable from ``node`` (excluding it unless on a cycle)."""
        seen: Set[N] = set()
        frontier = list(self._succ.get(node, ()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._succ.get(current, ()))
        return seen

    def subgraph(self, nodes: Iterable[N]) -> "Digraph[N]":
        keep = set(nodes)
        sub: Digraph[N] = Digraph()
        for node in self._succ:
            if node in keep:
                sub.add_node(node)
        for src, dst, labels in self.edges():
            if src in keep and dst in keep:
                for label in labels or ("",):
                    sub.add_edge(src, dst, label)
        return sub

    def to_networkx(self) -> Any:
        """Export as a ``networkx.DiGraph`` (labels under the ``kinds`` key)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._succ)
        for src, dst, labels in self.edges():
            graph.add_edge(src, dst, kinds=list(labels))
        return graph

    def __repr__(self) -> str:
        return f"Digraph(nodes={len(self)}, edges={self.edge_count()})"


class IncrementalTopology(Generic[N]):
    """Incremental cycle detection via topological-order maintenance.

    Pearce–Kelly style: every node carries a topological index; inserting
    an edge ``u -> v`` with ``index[u] < index[v]`` is free (the order is
    already consistent), and only an out-of-order insert searches the
    *affected region* — the nodes whose indices lie between ``index[v]``
    and ``index[u]``.  If the forward frontier from ``v`` reaches ``u``
    inside that region the edge closes a cycle, which is returned as a
    node list (first node repeated last, like
    :meth:`Digraph.find_cycle`); otherwise the affected nodes are
    reindexed and the order is consistent again.

    This is the online certifier's replacement for running a full DFS
    over the whole sibling group on every new edge: amortised work is
    proportional to the affected region, which for append-mostly
    histories (new transactions conflict with older ones) is usually
    empty.  ``last_affected`` exposes the region size of the most recent
    insert so callers can surface the work in metrics.
    """

    def __init__(self) -> None:
        self._succ: Dict[N, Set[N]] = {}
        self._pred: Dict[N, Set[N]] = {}
        self._index: Dict[N, int] = {}
        self._next_index = 0
        #: nodes visited while repairing the order on the last insert
        self.last_affected = 0

    def __contains__(self, node: object) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._index)

    def index_of(self, node: N) -> int:
        """The node's current topological index (raises if unknown)."""
        return self._index[node]

    def add_node(self, node: N) -> None:
        """Register ``node`` with the next free (largest) index."""
        if node not in self._index:
            self._succ[node] = set()
            self._pred[node] = set()
            self._index[node] = self._next_index
            self._next_index += 1

    def has_edge(self, src: N, dst: N) -> bool:
        return src in self._succ and dst in self._succ[src]

    def remove_node(self, node: N) -> None:
        """Remove ``node`` and its incident edges (missing is a no-op).

        Deleting a node cannot invalidate the maintained order — every
        remaining edge keeps its endpoints' relative indices — so no
        repair pass is needed.  The freed index is simply retired;
        ``_next_index`` stays monotone.
        """
        targets = self._succ.pop(node, None)
        if targets is None:
            return
        for dst in targets:
            self._pred[dst].discard(node)
        for src in self._pred.pop(node, ()):
            self._succ[src].discard(node)
        del self._index[node]

    def add_edge(self, src: N, dst: N) -> Optional[List[N]]:
        """Insert an edge, repairing the order; return a cycle if one forms.

        Returns ``None`` when the graph stays acyclic.  When the edge
        closes a cycle, returns the cycle as ``[src, ..., src]`` *without*
        recording the edge, leaving the maintained order consistent (the
        caller latches the verdict and stops consulting this structure).
        """
        self.add_node(src)
        self.add_node(dst)
        self.last_affected = 0
        if dst in self._succ[src]:
            return None
        if src == dst:
            return [src, src]
        lower = self._index[dst]
        upper = self._index[src]
        if lower > upper:
            # already consistent: a plain insert, no search at all
            self._succ[src].add(dst)
            self._pred[dst].add(src)
            return None
        # forward search from dst, bounded by the affected region
        forward: List[N] = []
        seen: Set[N] = {dst}
        parent: Dict[N, N] = {}
        stack = [dst]
        while stack:
            node = stack.pop()
            forward.append(node)
            for succ in self._succ[node]:
                if succ == src:
                    # the new edge would close src -> dst -> ... -> src
                    path = [node]
                    while path[-1] != dst:
                        path.append(parent[path[-1]])
                    path.reverse()
                    self.last_affected = len(forward)
                    return [src, *path, src]
                if succ not in seen and self._index[succ] < upper:
                    seen.add(succ)
                    parent[succ] = node
                    stack.append(succ)
        # backward search from src, bounded below by index[dst]
        backward: List[N] = []
        seen_back: Set[N] = {src}
        stack = [src]
        while stack:
            node = stack.pop()
            backward.append(node)
            for pred in self._pred[node]:
                if pred not in seen_back and self._index[pred] > lower:
                    seen_back.add(pred)
                    stack.append(pred)
        self.last_affected = len(forward) + len(backward)
        # reorder: backward nodes first, then forward nodes, into the
        # pooled (sorted) set of indices both regions occupied
        backward.sort(key=self._index.__getitem__)
        forward.sort(key=self._index.__getitem__)
        pool = sorted(self._index[node] for node in backward + forward)
        for node, index in zip(backward + forward, pool):
            self._index[node] = index
        self._succ[src].add(dst)
        self._pred[dst].add(src)
        return None

    def as_digraph(self) -> Digraph[N]:
        """A :class:`Digraph` copy of the recorded edges (for inspection)."""
        graph: Digraph[N] = Digraph()
        for node in self._index:
            graph.add_node(node)
        for src, targets in self._succ.items():
            for dst in targets:
                graph.add_edge(src, dst)
        return graph

    def check_invariant(self) -> bool:
        """True iff every recorded edge respects the maintained order."""
        return all(
            self._index[src] < self._index[dst]
            for src, targets in self._succ.items()
            for dst in targets
        )

    def __repr__(self) -> str:
        edges = sum(len(t) for t in self._succ.values())
        return f"IncrementalTopology(nodes={len(self)}, edges={edges})"
