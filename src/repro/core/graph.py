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

__all__ = ["Digraph", "CycleError"]

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

