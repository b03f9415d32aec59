"""Tests for the serialization graph construction (conflict/precedes/SG)."""

from repro.core.serialization_graph import (
    CONFLICT,
    PRECEDES,
    SiblingEdge,
    build_serialization_graph,
    conflict_pairs,
    precedes_pairs,
)

from conftest import (
    BehaviorBuilder,
    T,
    blind_write_cycle_behavior,
    lost_update_behavior,
    rw_system,
    serial_two_txn_behavior,
)


class TestConflictPairs:
    def test_rw_conflict_produces_edge(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.write(t1, "w", "x", 1)
        b.read(t2, "r", "x", 1)
        b.commit(t1)
        b.commit(t2)
        edges = conflict_pairs(b.build(), system)
        assert SiblingEdge(T("t1"), T("t2"), CONFLICT) in edges

    def test_read_read_no_edge(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.read(t1, "r", "x", 0)
        b.read(t2, "r", "x", 0)
        b.commit(t1)
        b.commit(t2)
        assert conflict_pairs(b.build(), system) == []

    def test_different_objects_no_edge(self):
        system = rw_system("x", "y")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.write(t1, "w", "x", 1)
        b.write(t2, "w", "y", 1)
        b.commit(t1)
        b.commit(t2)
        assert conflict_pairs(b.build(), system) == []

    def test_invisible_accesses_excluded(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.write(t1, "w", "x", 1)
        b.write(t2, "w", "x", 2)
        b.commit(t1)
        # t2 never commits: its write is not visible to T0, no edge
        assert conflict_pairs(b.build(), system) == []

    def test_edge_direction_follows_event_order(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.write(t2, "w", "x", 2)  # t2's access first
        b.write(t1, "w", "x", 1)
        b.commit(t1)
        b.commit(t2)
        edges = conflict_pairs(b.build(), system)
        assert edges == [SiblingEdge(T("t2"), T("t1"), CONFLICT)]

    def test_nested_conflict_lifted_to_lca_children(self):
        # conflicts between grandchildren produce edges between the
        # children of their least common ancestor
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        u1, u2 = b.begin(t.child("u1")), b.begin(t.child("u2"))
        b.write(u1, "w", "x", 1)
        b.read(u2, "r", "x", 1)
        b.commit(u1)
        b.commit(u2)
        b.commit(t)
        edges = conflict_pairs(b.build(), system)
        assert edges == [SiblingEdge(t.child("u1"), t.child("u2"), CONFLICT)]

    def test_ancestor_descendant_conflicts_ignored(self):
        # an access conflicting with its own subtransaction's access
        # imposes no sibling ordering
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.write(t, "w", "x", 1)
        u = b.begin(t.child("u"))
        b.read(u, "r", "x", 1)
        b.commit(u)
        b.commit(t)
        edges = conflict_pairs(b.build(), system)
        # w is a child of t, u is a child of t; they are siblings though!
        # The *sibling* pair (w, u) is real; check it is exactly that.
        assert edges == [SiblingEdge(t.child("w"), t.child("u"), CONFLICT)]


class TestPrecedesPairs:
    def test_sequential_children_produce_edge(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.write(t1, "w", "x", 1)
        b.commit(t1)
        t2 = b.begin_top("t2")  # REQUEST_CREATE after t1's report
        b.read(t2, "r", "x", 1)
        b.commit(t2)
        edges = precedes_pairs(b.build())
        assert SiblingEdge(T("t1"), T("t2"), PRECEDES) in edges

    def test_concurrent_children_no_edge(self):
        behavior, _ = lost_update_behavior()
        top_level = [
            e for e in precedes_pairs(behavior) if e.source in (T("t1"), T("t2"))
        ]
        assert top_level == []

    def test_aborted_sibling_still_precedes(self):
        # external consistency applies to aborted children too: the parent
        # saw the abort report before requesting the next child
        from repro.core.actions import Abort, ReportAbort, RequestCreate

        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = T("t1")
        b.emit(RequestCreate(t1), Abort(t1), ReportAbort(t1))
        t2 = b.begin_top("t2")
        b.commit(t2, value="v")
        edges = precedes_pairs(b.build())
        assert SiblingEdge(t1, T("t2"), PRECEDES) in edges

    def test_parent_must_be_visible(self):
        # inner precedes pair under a parent that never commits is excluded
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        u1 = b.begin(t.child("u1"))
        b.commit(u1)
        u2 = b.begin(t.child("u2"))
        b.commit(u2)
        # t itself never commits
        edges = precedes_pairs(b.build())
        assert all(edge.parent != t for edge in edges)


class TestSerializationGraph:
    def test_acyclic_serial(self):
        behavior, system = serial_two_txn_behavior()
        graph = build_serialization_graph(behavior, system)
        assert graph.is_acyclic()
        assert graph.find_cycle() is None

    def test_lost_update_cycle(self):
        behavior, system = lost_update_behavior()
        graph = build_serialization_graph(behavior, system)
        assert not graph.is_acyclic()
        parent, cycle = graph.find_cycle()
        assert parent == T()
        assert set(cycle) <= {T("t1"), T("t2")}

    def test_blind_write_cycle(self):
        behavior, system = blind_write_cycle_behavior()
        graph = build_serialization_graph(behavior, system)
        assert not graph.is_acyclic()

    def test_to_sibling_order_topological(self):
        behavior, system = serial_two_txn_behavior()
        graph = build_serialization_graph(behavior, system)
        order = graph.to_sibling_order()
        assert order.holds(T("t1"), T("t2"))  # conflict + precedes direction

    def test_nodes_seeded_from_requests(self):
        behavior, system = serial_two_txn_behavior()
        graph = build_serialization_graph(behavior, system)
        assert T("t1") in graph.nodes()
        assert T("t2") in graph.nodes()

    def test_edges_iteration_kinds(self):
        behavior, system = serial_two_txn_behavior()
        graph = build_serialization_graph(behavior, system)
        kinds = {edge.kind for edge in graph.edges()}
        assert kinds <= {CONFLICT, PRECEDES}
        assert PRECEDES in kinds

    def test_networkx_export(self):
        behavior, system = lost_update_behavior()
        graph = build_serialization_graph(behavior, system)
        nx_graph = graph.to_networkx()
        assert nx_graph.has_edge(T("t1"), T("t2"))
        assert nx_graph.has_edge(T("t2"), T("t1"))
