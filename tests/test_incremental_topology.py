"""Tests for the Pearce–Kelly incremental topology (`repro.core.graph`).

The structure must agree with the naive full-DFS check at every single
edge insert: it stays silent exactly as long as the graph is acyclic,
reports a well-formed cycle at the first insert that would close one,
and maintains a topological index consistent with every recorded edge.
"""

import random

import pytest

from repro.core.graph import Digraph, IncrementalTopology


class TestBasics:
    def test_forward_insert_is_free(self):
        topo = IncrementalTopology()
        assert topo.add_edge("a", "b") is None
        assert topo.add_edge("b", "c") is None
        assert topo.last_affected == 0  # indices already consistent
        assert topo.index_of("a") < topo.index_of("b") < topo.index_of("c")

    def test_out_of_order_insert_reorders(self):
        topo = IncrementalTopology()
        topo.add_node("a")
        topo.add_node("b")
        # b was registered after a, so b -> a is out of index order
        assert topo.add_edge("b", "a") is None
        assert topo.last_affected > 0
        assert topo.index_of("b") < topo.index_of("a")
        assert topo.check_invariant()

    def test_self_loop_is_a_cycle(self):
        topo = IncrementalTopology()
        assert topo.add_edge("a", "a") == ["a", "a"]

    def test_two_cycle(self):
        topo = IncrementalTopology()
        assert topo.add_edge("a", "b") is None
        assert topo.add_edge("b", "a") == ["b", "a", "b"]

    def test_duplicate_edge_is_ignored(self):
        topo = IncrementalTopology()
        assert topo.add_edge("a", "b") is None
        assert topo.add_edge("a", "b") is None
        assert len(topo) == 2

    def test_cycle_leaves_order_consistent(self):
        """A rejected edge is not recorded; the order stays valid."""
        topo = IncrementalTopology()
        topo.add_edge("a", "b")
        topo.add_edge("b", "c")
        assert topo.add_edge("c", "a") is not None
        assert not topo.has_edge("c", "a")
        assert topo.check_invariant()
        # and the structure remains usable for acyclic inserts
        assert topo.add_edge("a", "c") is None
        assert topo.check_invariant()

    def test_longer_cycle_path_is_reported(self):
        topo = IncrementalTopology()
        for src, dst in [("a", "b"), ("b", "c"), ("c", "d")]:
            assert topo.add_edge(src, dst) is None
        cycle = topo.add_edge("d", "a")
        assert cycle is not None
        assert cycle[0] == cycle[-1] == "d"
        assert set(cycle) == {"a", "b", "c", "d"}

    def test_as_digraph_round_trip(self):
        topo = IncrementalTopology()
        topo.add_edge(1, 2)
        topo.add_edge(2, 3)
        graph = topo.as_digraph()
        assert set(graph.nodes()) == {1, 2, 3}
        assert graph.has_edge(1, 2) and graph.has_edge(2, 3)
        assert graph.is_acyclic()


class TestAgainstNaive:
    """Insert-for-insert agreement with `Digraph.find_cycle` on random graphs."""

    @pytest.mark.parametrize("trial", range(50))
    def test_cycle_detected_at_the_same_insert(self, trial):
        rng = random.Random(trial)
        node_count = rng.randint(2, 14)
        topo = IncrementalTopology()
        naive = Digraph()
        for _ in range(rng.randint(1, 40)):
            src, dst = rng.randrange(node_count), rng.randrange(node_count)
            cycle = topo.add_edge(src, dst)
            naive.add_edge(src, dst)
            if cycle is None:
                assert naive.is_acyclic(), (trial, src, dst)
                assert topo.check_invariant(), (trial, src, dst)
            else:
                # the naive graph (with the edge) must agree it is cyclic,
                # and the reported cycle must be closed and real
                assert not naive.is_acyclic(), (trial, src, dst)
                assert cycle[0] == cycle[-1]
                for a, b in zip(cycle, cycle[1:]):
                    assert naive.has_edge(a, b), (trial, cycle)
                break

    @pytest.mark.parametrize("trial", range(20))
    def test_index_respects_every_edge_on_random_dags(self, trial):
        """Insert random *forward-safe* edges; the order must stay valid."""
        rng = random.Random(1000 + trial)
        node_count = rng.randint(3, 20)
        # random DAG: only edges low -> high in a hidden permutation
        hidden = list(range(node_count))
        rng.shuffle(hidden)
        rank = {node: position for position, node in enumerate(hidden)}
        topo = IncrementalTopology()
        edges = []
        for _ in range(rng.randint(5, 60)):
            a, b = rng.sample(range(node_count), 2)
            src, dst = (a, b) if rank[a] < rank[b] else (b, a)
            assert topo.add_edge(src, dst) is None, (trial, src, dst)
            edges.append((src, dst))
        assert topo.check_invariant()
        for src, dst in edges:
            assert topo.index_of(src) < topo.index_of(dst)
