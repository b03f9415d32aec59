"""Tests for the brute-force serial-correctness oracle."""

from repro.core.correctness import certify
from repro.core.oracle import enumerate_sibling_orders, oracle_serially_correct

from conftest import (
    BehaviorBuilder,
    T,
    blind_write_cycle_behavior,
    dirty_read_behavior,
    lost_update_behavior,
    rw_system,
    serial_two_txn_behavior,
)


class TestOracle:
    def test_accepts_serial(self):
        behavior, system = serial_two_txn_behavior()
        result = oracle_serially_correct(behavior, system)
        assert result
        assert result.witness is not None
        assert result.orders_tried >= 1

    def test_rejects_lost_update(self):
        behavior, system = lost_update_behavior()
        result = oracle_serially_correct(behavior, system)
        assert not result
        assert not result.truncated

    def test_accepts_blind_write_cycle(self):
        # the E4 separation: SG rejects, oracle accepts
        behavior, system = blind_write_cycle_behavior()
        assert not certify(behavior, system).certified
        assert oracle_serially_correct(behavior, system)

    def test_rejects_dirty_read(self):
        behavior, system = dirty_read_behavior()
        assert not oracle_serially_correct(behavior, system)

    def test_certified_implies_oracle_accepts(self):
        for factory in (serial_two_txn_behavior,):
            behavior, system = factory()
            if certify(behavior, system).certified:
                assert oracle_serially_correct(behavior, system)

    def test_truncation_reported(self):
        behavior, system = lost_update_behavior()
        result = oracle_serially_correct(behavior, system, max_orders=1)
        assert not result
        assert result.truncated

    def test_write_skew_needs_order_search(self):
        # r1(x) r2(y) w1(y) w2(x): conflicts x: r1 before w2 (t1->t2),
        # y: r2 before w1 (t2->t1) -- a cycle; and indeed not serializable
        # in the strict sense here because each read must precede the other's
        # write.  Values: both read 0, writes blind.  Any serial order makes
        # one read see the other's write -- reads returned 0, so the witness
        # fails; the oracle must reject.
        system = rw_system("x", "y")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.read(t1, "rx", "x", 0)
        b.read(t2, "ry", "y", 0)
        b.write(t1, "wy", "y", 1)
        b.write(t2, "wx", "x", 1)
        b.commit(t1)
        b.commit(t2)
        behavior = b.build()
        assert not certify(behavior, system).certified
        assert not oracle_serially_correct(behavior, system)


class TestEnumerateOrders:
    def test_counts_permutations(self):
        behavior, _ = lost_update_behavior()
        orders = list(enumerate_sibling_orders(behavior))
        # visible groups: T0 -> {t1, t2} (2!), t1 -> {r, w} (2!), t2 -> {r, w} (2!)
        assert len(orders) == 8

    def test_limit(self):
        behavior, _ = lost_update_behavior()
        assert len(list(enumerate_sibling_orders(behavior, limit=3))) == 3

    def test_empty_behavior_single_order(self):
        assert len(list(enumerate_sibling_orders(()))) == 1
