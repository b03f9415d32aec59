"""Tests for the online engine's sibling-group edge store
(`repro.core.online._Group`): predecessor bitsets that are its only
edge relation, and the Pearce–Kelly topological order kept beside them.

The store must agree with the naive full-DFS check at every edge insert,
one edge at a time or in batches into one target: it stays silent
exactly as long as the graph is acyclic, reports a closed cycle of
recorded edges at the first insert that closes one, and keeps an order
that every recorded edge respects after each accepted insert.  The
engine never inserts a self-loop, so none is generated here.
"""

import random

import pytest

from repro.core.graph import Digraph
from repro.core.online import _CONFLICT, _PRECEDES, _Group


def add(group, sources, target, kind=_CONFLICT):
    """Record edges from ``sources`` into ``target`` and order the new
    ones as one batch, as the engine does; return the cycle, or None."""
    new = group.record(sum(1 << source for source in set(sources)), target, kind)
    return group.insert(new, target) if new else None


def edges(group):
    """Every recorded edge as ``(source, target)``."""
    found = set()
    for target, kinds in group.preds.items():
        bits = kinds[0] | kinds[1]
        found.update(
            (source, target) for source in range(bits.bit_length()) if bits >> source & 1
        )
    return found


def order_holds(group, skip=()):
    """``order`` and ``position`` agree, and every recorded edge but those
    in ``skip`` runs forward in the order."""
    position = group.position
    assert all(position[member] == at for at, member in enumerate(group.order))
    return all(
        position[source] < position[target]
        for source, target in edges(group) - set(skip)
    )


def assert_real_cycle(group, naive, cycle):
    """A closed cycle whose every edge is recorded, and the naive graph
    agrees that it is cyclic."""
    assert not naive.is_acyclic()
    assert cycle[0] == cycle[-1]
    recorded = edges(group)
    for source, target in zip(cycle, cycle[1:]):
        assert (source, target) in recorded
        assert naive.has_edge(source, target)


class TestBasics:
    def test_forward_insert_is_free(self):
        group = _Group()
        assert add(group, [0], 1) is None
        assert add(group, [1], 2) is None
        assert group.affected == 0  # positions already consistent
        assert group.position[0] < group.position[1] < group.position[2]

    def test_out_of_order_insert_reorders(self):
        group = _Group()
        add(group, [0], 2)
        add(group, [1], 3)
        assert group.order == [0, 2, 1, 3]
        # 1 was placed after 0, so 1 -> 0 runs against the order
        assert add(group, [1], 0) is None
        assert group.affected > 0
        assert group.position[1] < group.position[0]
        assert order_holds(group)

    def test_two_cycle(self):
        group = _Group()
        assert add(group, [0], 1) is None
        assert add(group, [1], 0) == [1, 0, 1]

    def test_duplicate_edge_is_ignored(self):
        group = _Group()
        assert add(group, [0], 1) is None
        assert group.record(1 << 0, 1, _CONFLICT) == 0
        # a second kind on an existing edge is a label, not a new edge
        assert group.record(1 << 0, 1, _PRECEDES) == 0
        assert group.preds[1] == [1, 1]
        assert group.order == [0, 1]

    def test_cycle_leaves_order_consistent(self):
        """The closing edge is recorded but moves nothing: every other
        edge still respects the order."""
        group = _Group()
        add(group, [0], 1)
        add(group, [1], 2)
        before = list(group.order)
        assert add(group, [2], 0) is not None
        assert (2, 0) in edges(group)
        assert group.order == before
        assert order_holds(group, skip={(2, 0)})

    def test_longer_cycle_path_is_reported(self):
        group = _Group()
        naive = Digraph()
        for source, target in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            naive.add_edge(source, target)
            cycle = add(group, [source], target)
        assert cycle == [3, 0, 1, 2, 3]
        assert_real_cycle(group, naive, cycle)


class TestBatches:
    def test_a_batch_into_an_unplaced_target_needs_no_search(self):
        group = _Group()
        add(group, [0], 1)
        add(group, [2], 3)
        assert add(group, [1, 3, 4], 5) is None
        assert group.inserted == 3
        assert group.affected == 0
        assert group.order == [0, 1, 2, 3, 4, 5]
        assert order_holds(group)

    @pytest.mark.parametrize(
        "sources, cyclic", [([2, 4], True), ([0, 2], False)], ids=["latches", "reorders"]
    )
    def test_a_batch_into_a_placed_target_matches_single_inserts(self, sources, cyclic):
        """Target 1 sits first in the order and the batch's sources after
        it; source 4 is reachable from it (1 -> 3 -> 4), so 4 -> 1 closes
        a cycle exactly where the one-at-a-time inserts do."""
        batched, single = _Group(), _Group()
        for group in (batched, single):
            for source, target in [(1, 3), (0, 2), (3, 4)]:
                add(group, [source], target)
        assert batched.order == [1, 3, 0, 2, 4]
        cycle = add(batched, sources, 1)
        for source in sources:
            single_cycle = add(single, [source], 1)
            if single_cycle is not None:
                break
        assert cycle == single_cycle
        assert (cycle is not None) == cyclic
        assert batched.order == single.order
        assert batched.inserted == len(sources)
        if cyclic:
            assert cycle == [4, 1, 3, 4]
        else:
            assert order_holds(batched)

    @pytest.mark.parametrize("trial", range(30))
    def test_batches_latch_at_the_same_edge(self, trial):
        """Random batches into random targets against one-at-a-time naive
        inserts in rank order: the batch latches on the first source whose
        edge makes the naive graph cyclic."""
        rng = random.Random(5000 + trial)
        node_count = rng.randint(3, 16)
        group = _Group()
        naive = Digraph()
        for _ in range(rng.randint(1, 25)):
            target = rng.randrange(node_count)
            others = [member for member in range(node_count) if member != target]
            sources = rng.sample(others, rng.randint(1, min(4, len(others))))
            new = [source for source in sorted(sources) if not naive.has_edge(source, target)]
            closing = None
            for index, source in enumerate(new):
                naive.add_edge(source, target)
                if closing is None and not naive.is_acyclic():
                    closing = index
            cycle = add(group, sources, target)
            if closing is None:
                assert cycle is None, (trial, sources, target)
                assert order_holds(group), (trial, sources, target)
                if new:
                    assert group.inserted == len(new)
            else:
                assert cycle is not None, (trial, sources, target)
                assert cycle[:2] == [new[closing], target]
                assert group.inserted == closing + 1
                assert_real_cycle(group, naive, cycle)
                break

    @pytest.mark.parametrize("trial", range(10))
    def test_batches_keep_the_order_on_random_dags(self, trial):
        rng = random.Random(7000 + trial)
        node_count = rng.randint(3, 20)
        hidden = list(range(node_count))
        rng.shuffle(hidden)
        rank = {node: index for index, node in enumerate(hidden)}
        group = _Group()
        for _ in range(rng.randint(5, 30)):
            target = rng.choice(hidden[1:])
            earlier = [node for node in hidden if rank[node] < rank[target]]
            sources = rng.sample(earlier, rng.randint(1, min(4, len(earlier))))
            assert add(group, sources, target) is None, (trial, sources, target)
            assert order_holds(group), (trial, sources, target)


class TestAgainstNaive:
    """Insert-for-insert agreement with `Digraph.find_cycle` on random graphs."""

    @pytest.mark.parametrize("trial", range(50))
    def test_cycle_detected_at_the_same_insert(self, trial):
        rng = random.Random(trial)
        node_count = rng.randint(2, 14)
        group = _Group()
        naive = Digraph()
        for _ in range(rng.randint(1, 40)):
            source, target = rng.sample(range(node_count), 2)
            cycle = add(group, [source], target)
            naive.add_edge(source, target)
            if cycle is None:
                assert naive.is_acyclic(), (trial, source, target)
                assert order_holds(group), (trial, source, target)
            else:
                assert cycle[:2] == [source, target]
                assert_real_cycle(group, naive, cycle)
                break

    @pytest.mark.parametrize("trial", range(20))
    def test_index_respects_every_edge_on_random_dags(self, trial):
        """Insert random *forward-safe* edges; the order must stay valid."""
        rng = random.Random(1000 + trial)
        node_count = rng.randint(3, 20)
        # random DAG: only edges low -> high in a hidden permutation
        hidden = list(range(node_count))
        rng.shuffle(hidden)
        rank = {node: index for index, node in enumerate(hidden)}
        group = _Group()
        inserted = []
        for _ in range(rng.randint(5, 60)):
            a, b = rng.sample(range(node_count), 2)
            source, target = (a, b) if rank[a] < rank[b] else (b, a)
            assert add(group, [source], target) is None, (trial, source, target)
            inserted.append((source, target))
        assert order_holds(group)
        for source, target in inserted:
            assert group.position[source] < group.position[target]
