"""Sibling orders and their extensions ``R_trans`` and ``R_event`` (Section 2.3.2).

A *sibling order* ``R`` is an irreflexive partial order relating only
siblings in the transaction tree.  It extends to

* ``R_trans`` on arbitrary transaction names: ``(T, T')`` when ``T`` and
  ``T'`` descend from siblings ``U`` and ``U'`` with ``(U, U') in R``;
* ``R_event(beta)`` on events of a behavior: ``(phi, pi)`` when their
  lowtransactions are related by ``R_trans``.

The Serializability Theorem needs ``R`` to be *suitable* for a behavior
``beta`` and a transaction ``T``; :func:`is_suitable` implements the
two-part definition, and :func:`consistent_partial_orders` is the check
underlying Lemma 1.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .actions import Action, hightransaction, is_serial_action, lowtransaction
from .events import AffectsRelation, StatusIndex
from .graph import Digraph
from .history import HistoryIndex
from .names import TransactionName, lca

__all__ = ["SiblingOrder", "is_suitable", "consistent_partial_orders"]


class SiblingOrder:
    """A sibling order stored as per-parent ordered child sequences.

    The common case (and the one produced by topologically sorting a
    serialization graph) is a *total* order on each relevant sibling
    group; arbitrary irreflexive sibling partial orders can be expressed
    via :meth:`from_pairs`, which stores them as explicit pair sets.
    """

    def __init__(
        self,
        orders: Optional[Mapping[TransactionName, Sequence[TransactionName]]] = None,
        extra_pairs: Optional[Iterable[Tuple[TransactionName, TransactionName]]] = None,
    ) -> None:
        self._rank: Dict[TransactionName, Dict[TransactionName, int]] = {}
        self._pairs: Set[Tuple[TransactionName, TransactionName]] = set()
        for parent, children in (orders or {}).items():
            self.set_order(parent, children)
        for first, second in extra_pairs or ():
            self.add_pair(first, second)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[TransactionName, TransactionName]]
    ) -> "SiblingOrder":
        return cls(extra_pairs=pairs)

    def set_order(
        self, parent: TransactionName, children: Sequence[TransactionName]
    ) -> None:
        """Impose a total order on (some of) the children of ``parent``."""
        ranks: Dict[TransactionName, int] = {}
        for position, child in enumerate(children):
            if child.is_root or child.parent != parent:
                raise ValueError(f"{child} is not a child of {parent}")
            if child in ranks:
                raise ValueError(f"duplicate child {child}")
            ranks[child] = position
        self._rank[parent] = ranks

    def add_pair(self, first: TransactionName, second: TransactionName) -> None:
        """Record the single ordered sibling pair ``(first, second)``."""
        if not first.is_sibling_of(second):
            raise ValueError(f"{first} and {second} are not siblings")
        if (second, first) in self._pairs:
            raise ValueError(f"pair would make the order reflexive on {first},{second}")
        self._pairs.add((first, second))

    # -- queries ---------------------------------------------------------

    def holds(self, first: TransactionName, second: TransactionName) -> bool:
        """True iff ``(first, second)`` is in ``R``."""
        if first == second:
            return False
        if (first, second) in self._pairs:
            return True
        if first.is_root or second.is_root or first.parent != second.parent:
            return False
        ranks = self._rank.get(first.parent)
        if ranks is None or first not in ranks or second not in ranks:
            return False
        return ranks[first] < ranks[second]

    def orders(self, first: TransactionName, second: TransactionName) -> bool:
        """True iff ``R`` relates the two siblings in either direction."""
        return self.holds(first, second) or self.holds(second, first)

    def trans_holds(self, first: TransactionName, second: TransactionName) -> bool:
        """``R_trans``: descendants of ``R``-related siblings are related."""
        if first == second or first.is_related_to(second):
            return False
        depth = lca(first, second).depth + 1
        return self.holds(first.prefix(depth), second.prefix(depth))

    def event_pairs(self, behavior: Sequence[Action]) -> List[Tuple[int, int]]:
        """``R_event(beta)`` as index pairs over the serial events of ``beta``."""
        lows = [
            (i, lowtransaction(action))
            for i, action in enumerate(behavior)
            if is_serial_action(action)
        ]
        pairs: List[Tuple[int, int]] = []
        for i, low_i in lows:
            for j, low_j in lows:
                if i != j and self.trans_holds(low_i, low_j):
                    pairs.append((i, j))
        return pairs

    def pairs(self) -> Set[Tuple[TransactionName, TransactionName]]:
        """All explicit pairs of the order (materialising total orders)."""
        result = set(self._pairs)
        for ranks in self._rank.values():
            ordered = sorted(ranks, key=ranks.__getitem__)
            for i, first in enumerate(ordered):
                for second in ordered[i + 1 :]:
                    result.add((first, second))
        return result

    def sorted_children(
        self, parent: TransactionName, children: Iterable[TransactionName]
    ) -> List[TransactionName]:
        """Sort ``children`` of ``parent`` consistently with the order.

        Children the order does not mention are placed after ordered
        ones, in name order, keeping the result deterministic.
        """
        ranks = self._rank.get(parent, {})

        def key(child: TransactionName) -> Tuple[int, object]:
            return (0, ranks[child]) if child in ranks else (1, child)

        return sorted(children, key=key)

    def __repr__(self) -> str:
        total = sum(len(r) for r in self._rank.values())
        return f"SiblingOrder(ordered_children={total}, extra_pairs={len(self._pairs)})"


def consistent_partial_orders(
    pairs_a: Iterable[Tuple[int, int]],
    pairs_b: Iterable[Tuple[int, int]],
    nodes: Iterable[int],
) -> bool:
    """True iff the union of the two relations on ``nodes`` is acyclic.

    This is the notion of "consistent partial orders" used by Lemma 1 and
    the suitability condition, specialised to event-index relations.
    """
    graph: Digraph[int] = Digraph()
    node_set = set(nodes)
    for node in node_set:
        graph.add_node(node)
    for i, j in pairs_a:
        if i in node_set and j in node_set:
            graph.add_edge(i, j, "a")
    for i, j in pairs_b:
        if i in node_set and j in node_set:
            graph.add_edge(i, j, "b")
    return graph.is_acyclic()


def is_suitable(
    order: SiblingOrder,
    behavior: Sequence[Action],
    to: TransactionName,
    index: Optional[StatusIndex] = None,
) -> bool:
    """Check that ``order`` is suitable for ``behavior`` and ``to`` (Section 2.3.2).

    1. ``order`` must order all sibling pairs that are lowtransactions of
       actions in ``visible(behavior, to)``.
    2. ``R_event(behavior)`` and ``affects(behavior)`` must be consistent
       partial orders on the events of ``visible(behavior, to)``.

    With no ``index``, a :class:`repro.core.history.HistoryIndex` is
    built so the per-event visibility tests below hit memoized verdicts.
    """
    index = index if index is not None else HistoryIndex(behavior)
    visible_indices = [
        i
        for i, action in enumerate(behavior)
        if is_serial_action(action) and index.is_visible(hightransaction(action), to)
    ]
    lows = {
        lowtransaction(behavior[i]) for i in visible_indices
    }
    for first in lows:
        for second in lows:
            if first.is_sibling_of(second) and not order.orders(first, second):
                return False
    affects = AffectsRelation(behavior)
    return consistent_partial_orders(
        order.event_pairs(behavior),
        affects.pairs(),
        visible_indices,
    )
