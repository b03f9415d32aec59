"""Tests for view(beta, T, R, X) and the executable Serializability Theorem."""

import pytest

from repro.core.actions import Create, RequestCommit
from repro.core.correctness import certify
from repro.core.events import serial_projection
from repro.core.names import ROOT, ObjectName
from repro.core.serialization_graph import build_serialization_graph
from repro.core.sibling_order import SiblingOrder
from repro.core.view import serializability_theorem_applies, view

from conftest import (
    BehaviorBuilder,
    T,
    lost_update_behavior,
    rw_system,
    serial_two_txn_behavior,
)


def full_order():
    return SiblingOrder(
        {
            ROOT: [T("t1"), T("t2")],
            T("t1"): [T("t1", "w")],
            T("t2"): [T("t2", "r")],
        }
    )


class TestView:
    def test_view_orders_by_r_trans(self):
        behavior, system = serial_two_txn_behavior()
        result = view(behavior, ROOT, full_order(), ObjectName("x"), system)
        transactions = [
            a.transaction for a in result if isinstance(a, RequestCommit)
        ]
        assert transactions == [T("t1", "w"), T("t2", "r")]

    def test_view_reversed_order(self):
        behavior, system = serial_two_txn_behavior()
        reversed_order = SiblingOrder(
            {
                ROOT: [T("t2"), T("t1")],
                T("t1"): [T("t1", "w")],
                T("t2"): [T("t2", "r")],
            }
        )
        result = view(behavior, ROOT, reversed_order, ObjectName("x"), system)
        transactions = [
            a.transaction for a in result if isinstance(a, RequestCommit)
        ]
        assert transactions == [T("t2", "r"), T("t1", "w")]

    def test_view_excludes_invisible(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.write(t1, "w", "x", 1)
        b.write(t2, "w", "x", 2)
        b.commit(t1)  # t2 never commits
        order = SiblingOrder(
            {ROOT: [T("t1"), T("t2")], T("t1"): [T("t1", "w")]}
        )
        result = view(b.build(), ROOT, order, ObjectName("x"), system)
        transactions = [
            a.transaction for a in result if isinstance(a, RequestCommit)
        ]
        assert transactions == [T("t1", "w")]

    def test_view_requires_total_order(self):
        behavior, system = serial_two_txn_behavior()
        partial = SiblingOrder(
            {T("t1"): [T("t1", "w")], T("t2"): [T("t2", "r")]}
        )
        with pytest.raises(ValueError):
            view(behavior, ROOT, partial, ObjectName("x"), system)

    def test_view_is_performed_sequence(self):
        behavior, system = serial_two_txn_behavior()
        result = view(behavior, ROOT, full_order(), ObjectName("x"), system)
        assert isinstance(result[0], Create)
        assert len(result) % 2 == 0


class TestSerializabilityTheorem:
    def test_applies_with_good_order(self):
        behavior, system = serial_two_txn_behavior()
        assert serializability_theorem_applies(
            behavior, ROOT, full_order(), system
        ) == []

    def test_fails_with_reversed_order(self):
        # reversed order makes the x view illegal (read 7 before the write)
        behavior, system = serial_two_txn_behavior()
        reversed_order = SiblingOrder(
            {
                ROOT: [T("t2"), T("t1")],
                T("t1"): [T("t1", "w")],
                T("t2"): [T("t2", "r")],
            }
        )
        problems = serializability_theorem_applies(
            behavior, ROOT, reversed_order, system
        )
        assert problems  # not suitable (precedes) and view illegal

    def test_lost_update_has_no_good_total_order(self):
        behavior, system = lost_update_behavior()
        from repro.core.oracle import enumerate_sibling_orders

        for order in enumerate_sibling_orders(behavior):
            assert serializability_theorem_applies(
                behavior, ROOT, order, system
            ), "no sibling order should satisfy Theorem 2 for a lost update"

    def test_theorem8_order_satisfies_theorem2(self):
        """The reduction in the proof of Theorem 8: the topologically
        sorted SG order satisfies the Serializability Theorem hypotheses."""
        from repro.generic.system import make_generic_system
        from repro.locking.moss import MossRWLockingObject
        from repro.sim.driver import run_system
        from repro.sim.policies import EagerInformPolicy
        from repro.sim.workload import WorkloadConfig, generate_workload

        for seed in range(3):
            system_type, programs = generate_workload(
                WorkloadConfig(seed=seed, top_level=3, objects=2)
            )
            system = make_generic_system(system_type, programs, MossRWLockingObject)
            result = run_system(
                system, EagerInformPolicy(seed=seed), system_type,
                resolve_deadlocks=True,
            )
            serial = serial_projection(result.behavior)
            graph = build_serialization_graph(serial, system_type)
            order = graph.to_sibling_order()
            assert serializability_theorem_applies(
                serial, ROOT, order, system_type
            ) == []
