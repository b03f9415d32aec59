"""The completion-order relation used by Propositions 16 and 24.

The paper proves `SG(serial(beta))` acyclic for both verified algorithms
by exhibiting a partial order that contains every graph edge: the
*completion order* — ``(U, U')`` for siblings when ``beta`` contains a
completion event for ``U`` before any completion event for ``U'`` (or
``U`` completed and ``U'`` never did).

:func:`completion_holds` implements the relation and
:func:`edges_respect_completion_order` re-checks the propositions' key
step on actual behaviors: every conflict and precedes edge produced by
a locking or undo-logging run must agree with the completion order.
This is the paper's proof *argument* made executable, strictly stronger
than checking acyclicity alone.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .actions import Action, is_completion
from .names import TransactionName
from .serialization_graph import SerializationGraph, SiblingEdge

__all__ = ["completion_positions", "completion_holds", "edges_respect_completion_order"]


def completion_positions(
    behavior: Sequence[Action],
) -> Dict[TransactionName, int]:
    """Position of each transaction's (first) completion event."""
    positions: Dict[TransactionName, int] = {}
    for position, action in enumerate(behavior):
        if is_completion(action):
            positions.setdefault(action.transaction, position)
    return positions


def completion_holds(
    positions: Dict[TransactionName, int],
    first: TransactionName,
    second: TransactionName,
) -> bool:
    """``(first, second) in completion(beta)``: siblings, and ``first``
    completed before ``second`` did (or ``second`` never completed)."""
    if not first.is_sibling_of(second):
        return False
    if first not in positions:
        return False
    return second not in positions or positions[first] < positions[second]


def edges_respect_completion_order(
    behavior: Sequence[Action],
    graph: SerializationGraph,
) -> List[SiblingEdge]:
    """Edges of ``graph`` NOT contained in the completion order of ``behavior``.

    Propositions 16 and 24 assert this list is empty for behaviors of
    Moss-locking and undo-logging systems respectively (which then
    implies acyclicity, since the completion order is a partial order).
    """
    positions = completion_positions(behavior)
    return [
        edge
        for edge in graph.edges()
        if not completion_holds(positions, edge.source, edge.target)
    ]
