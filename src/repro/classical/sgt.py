"""The classical serialization graph test for flat histories.

Nodes are committed transactions; there is an edge ``T -> T'`` when some
step of ``T`` conflicts with (same object, at least one write) and
precedes some step of ``T'`` in the committed projection.  A history is
conflict-serializable iff the graph is acyclic — the classical
necessary-and-sufficient test our nested construction generalises.
"""

from __future__ import annotations

from typing import Sequence, Set, Tuple

from ..core.graph import Digraph
from .histories import FlatStep, FlatWrite, committed_projection

__all__ = [
    "classical_serialization_graph",
    "is_conflict_serializable",
    "classical_edges",
]


def _conflicting(first: FlatStep, second: FlatStep) -> bool:
    if first.obj != second.obj:
        return False
    return isinstance(first, FlatWrite) or isinstance(second, FlatWrite)


def classical_serialization_graph(history: Sequence[FlatStep]) -> Digraph[str]:
    """Build the classical conflict graph over the committed projection."""
    steps = committed_projection(history)
    graph: Digraph[str] = Digraph()
    for step in steps:
        graph.add_node(step.txn)
    for i, first in enumerate(steps):
        for second in steps[i + 1 :]:
            if first.txn != second.txn and _conflicting(first, second):
                graph.add_edge(first.txn, second.txn, "conflict")
    return graph


def classical_edges(history: Sequence[FlatStep]) -> Set[Tuple[str, str]]:
    """The edge set of the classical graph, for comparisons."""
    graph = classical_serialization_graph(history)
    return {(src, dst) for src, dst, _ in graph.edges()}


def is_conflict_serializable(history: Sequence[FlatStep]) -> bool:
    """The classical test: acyclicity of the conflict graph."""
    return classical_serialization_graph(history).is_acyclic()
