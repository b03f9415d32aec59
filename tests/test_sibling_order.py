"""Tests for sibling orders, R_trans, R_event, and suitability."""

import pytest

from repro.core.actions import (
    Commit,
    Create,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.sibling_order import (
    SiblingOrder,
    consistent_partial_orders,
    is_suitable,
)

from conftest import BehaviorBuilder, T, rw_system


class TestSiblingOrder:
    def test_total_order_holds(self):
        order = SiblingOrder({T(): [T("a"), T("b"), T("c")]})
        assert order.holds(T("a"), T("b"))
        assert order.holds(T("a"), T("c"))
        assert not order.holds(T("b"), T("a"))
        assert not order.holds(T("a"), T("a"))

    def test_orders_either_direction(self):
        order = SiblingOrder({T(): [T("a"), T("b")]})
        assert order.orders(T("b"), T("a"))
        assert not order.orders(T("a"), T("zzz"))

    def test_pairs_materialisation(self):
        order = SiblingOrder({T(): [T("a"), T("b"), T("c")]})
        assert order.pairs() == {
            (T("a"), T("b")),
            (T("a"), T("c")),
            (T("b"), T("c")),
        }

    def test_from_pairs(self):
        order = SiblingOrder.from_pairs([(T("a"), T("b"))])
        assert order.holds(T("a"), T("b"))
        with pytest.raises(ValueError):
            order.add_pair(T("b"), T("a"))  # would be cyclic on the pair

    def test_non_siblings_rejected(self):
        with pytest.raises(ValueError):
            SiblingOrder.from_pairs([(T("a"), T("b", "c"))])
        with pytest.raises(ValueError):
            SiblingOrder({T("p"): [T("q", "r")]})

    def test_duplicate_child_rejected(self):
        with pytest.raises(ValueError):
            SiblingOrder({T(): [T("a"), T("a")]})

    def test_trans_holds_descendants(self):
        order = SiblingOrder({T(): [T("a"), T("b")]})
        assert order.trans_holds(T("a", "deep", "leaf"), T("b"))
        assert order.trans_holds(T("a"), T("b", "x"))
        assert not order.trans_holds(T("b", "x"), T("a"))

    def test_trans_never_relates_relatives(self):
        order = SiblingOrder({T(): [T("a"), T("b")]})
        assert not order.trans_holds(T("a"), T("a", "x"))
        assert not order.trans_holds(T("a", "x"), T("a"))
        assert not order.trans_holds(T("a"), T("a"))

    def test_sorted_children_deterministic(self):
        order = SiblingOrder({T(): [T("b"), T("a")]})
        children = [T("a"), T("b"), T("c")]
        assert order.sorted_children(T(), children) == [T("b"), T("a"), T("c")]

    def test_event_pairs(self):
        order = SiblingOrder({T(): [T("a"), T("b")]})
        behavior = (
            Create(T("b")),       # low = b
            Create(T("a")),       # low = a
            Commit(T("a", "c")),  # low = a/c (descendant of a)
        )
        pairs = set(order.event_pairs(behavior))
        assert (1, 0) in pairs  # a-event before b-event in R
        assert (2, 0) in pairs  # a/c under a relates to b
        assert (0, 1) not in pairs


class TestConsistency:
    def test_consistent_when_disjoint(self):
        assert consistent_partial_orders([(0, 1)], [(2, 3)], range(4))

    def test_inconsistent_when_opposed(self):
        assert not consistent_partial_orders([(0, 1)], [(1, 0)], range(2))

    def test_restricted_to_nodes(self):
        # the conflicting pair is outside the node set
        assert consistent_partial_orders([(0, 1)], [(1, 0)], {5})


class TestSuitability:
    def _behavior(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.write(t1, "w", "x", 1)
        b.commit(t1)
        t2 = b.begin_top("t2")
        b.read(t2, "r", "x", 1)
        b.commit(t2)
        return b.build(), system

    def test_matching_order_is_suitable(self):
        behavior, _ = self._behavior()
        order = SiblingOrder(
            {
                T(): [T("t1"), T("t2")],
                T("t1"): [T("t1", "w")],
                T("t2"): [T("t2", "r")],
            }
        )
        assert is_suitable(order, behavior, T())

    def test_reversed_order_violates_affects(self):
        # t2 was requested after t1's report, so affects forces t1 before t2;
        # an order putting t2 first cannot be suitable.
        behavior, _ = self._behavior()
        order = SiblingOrder(
            {
                T(): [T("t2"), T("t1")],
                T("t1"): [T("t1", "w")],
                T("t2"): [T("t2", "r")],
            }
        )
        assert not is_suitable(order, behavior, T())

    def test_unordered_visible_siblings_not_suitable(self):
        behavior, _ = self._behavior()
        order = SiblingOrder(
            {T("t1"): [T("t1", "w")], T("t2"): [T("t2", "r")]}
        )  # t1 vs t2 unordered
        assert not is_suitable(order, behavior, T())
