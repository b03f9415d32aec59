"""The shared history index: one path per relation, and memoization.

``conflict_pairs``, ``precedes_pairs`` and ``build_serialization_graph``
each have one code path; the index they are given only answers
visibility (and, for a covering ``HistoryIndex``, serves its cached
``visible(beta, T0)``).  So they must return the same edges, nodes and
cycles with no index, a plain ``StatusIndex`` and a ``HistoryIndex``,
across seeded random workloads.  The rest of this module pins the
index's individual guarantees: projections are exact slices,
orphan/visibility memoization stays correct under late ABORTs, the
conflict cache memoizes verdicts, and the batch engine's read-run skip
never changes an edge.
"""

from __future__ import annotations

import pytest

from conftest import (
    T,
    BehaviorBuilder,
    dirty_read_behavior,
    lost_update_behavior,
    rw_system,
    serial_two_txn_behavior,
)
from repro import (
    ROOT,
    HistoryIndex,
    MetricsRegistry,
    ObjectName,
    StatusIndex,
    build_serialization_graph,
    certify,
    clean_projection,
    conflict_pairs,
    precedes_pairs,
    project_object,
    project_transaction,
    serial_projection,
    visible_projection,
)
from repro.core.history import ConflictCache
from test_core_properties import random_simple_behavior
from test_online import random_contended_behavior


def relations(serial, system, index):
    """What the three definition functions return given ``index``."""
    graph = build_serialization_graph(serial, system, index)
    return (
        conflict_pairs(serial, system, index),
        precedes_pairs(serial, index),
        graph.nodes(),
        sorted((e.source, e.target, e.kind) for e in graph.edges()),
        graph.find_cycle(),
    )


def assert_indexes_agree(behavior, system, seed=None):
    """No index, a ``StatusIndex`` and a ``HistoryIndex`` give the same
    relations; returns them."""
    serial = serial_projection(behavior)
    naive = relations(serial, system, None)
    assert relations(serial, system, StatusIndex(serial)) == naive, seed
    assert relations(serial, system, HistoryIndex(serial, system)) == naive, seed
    return naive


class TestIndexedVsNaiveEngines:
    """The definition functions given a ``HistoryIndex`` (indexed) and
    given a ``StatusIndex`` or none (naive) are indistinguishable."""

    def test_200_seeded_workloads_agree(self):
        seen = dict.fromkeys(("conflict", "precedes"), 0)
        for seed in range(200):
            behavior, system = random_simple_behavior(seed, steps=30)
            conflicts, precedes, *_ = assert_indexes_agree(behavior, system, seed)
            seen["conflict"] += bool(conflicts)
            seen["precedes"] += bool(precedes)
        # the sweep must actually produce edges of both kinds
        assert all(seen.values()), seen

    def test_contended_interleavings_agree_on_cycle_witnesses(self):
        cyclic_seen = 0
        for seed in range(60):
            behavior, system = random_contended_behavior(seed)
            *_, cycle = assert_indexes_agree(behavior, system, seed)
            # identical witness, not just identical verdict: same parent,
            # same node sequence
            cyclic_seen += cycle is not None
        assert cyclic_seen > 0

    @pytest.mark.parametrize(
        "scenario",
        [serial_two_txn_behavior, lost_update_behavior, dirty_read_behavior],
    )
    def test_canonical_scenarios_agree(self, scenario):
        behavior, system = scenario()
        assert_indexes_agree(behavior, system)

    def test_pair_enumerations_agree_given_a_shared_index(self):
        for seed in (3, 17, 42):
            behavior, system = random_simple_behavior(seed, steps=40)
            serial = serial_projection(behavior)
            hist = HistoryIndex(serial, system)
            conflicts = conflict_pairs(serial, system, hist)
            precedes = precedes_pairs(serial, hist)
            # the graph built over the same index has exactly these edges
            graph = build_serialization_graph(serial, system, hist)
            key = lambda e: (e.source, e.target, e.kind)  # noqa: E731
            assert sorted(graph.edges(), key=key) == sorted(
                conflicts + precedes, key=key
            ), seed
            assert conflicts == conflict_pairs(serial, system), seed
            assert precedes == precedes_pairs(serial), seed


class TestProjectionSlices:
    """Index slices equal the definitional scans, event for event."""

    @pytest.mark.parametrize("seed", [0, 7, 23, 91])
    def test_all_projections_match_naive(self, seed):
        behavior, system = random_simple_behavior(seed, steps=40)
        serial = serial_projection(behavior)
        hist = HistoryIndex(serial, system)
        assert hist.serial_projection() == serial
        assert hist.visible_projection(ROOT) == visible_projection(
            serial, ROOT, StatusIndex(serial)
        )
        assert hist.clean_projection() == clean_projection(serial)
        transactions = {t for t in hist.create_requested} | {ROOT}
        for txn in transactions:
            assert hist.project_transaction(txn) == project_transaction(
                serial, txn
            ), txn
        for obj in system.object_names():
            assert hist.project_object(obj) == project_object(
                serial, obj, system
            ), obj

    def test_module_helpers_dispatch_to_covering_index(self):
        behavior, system = serial_two_txn_behavior()
        hist = HistoryIndex(behavior, system)
        assert visible_projection(behavior, ROOT, hist) is hist.visible_projection(
            ROOT
        )
        assert clean_projection(behavior, hist) is hist.clean_projection()
        assert project_transaction(behavior, ROOT, hist) is hist.project_transaction(
            ROOT
        )

    def test_non_covering_index_falls_back_to_scan(self):
        behavior, system = serial_two_txn_behavior()
        hist = HistoryIndex(behavior, system)
        prefix = behavior[:-1]
        assert not hist.covers(prefix)
        # the helper must not serve the full behavior's cache for a prefix
        assert visible_projection(prefix, ROOT, StatusIndex(prefix)) == (
            visible_projection(prefix, ROOT, hist)
        )

    def test_project_object_requires_system_type(self):
        behavior, _ = serial_two_txn_behavior()
        hist = HistoryIndex(behavior)
        with pytest.raises(ValueError):
            hist.project_object(ObjectName("x"))


class TestMemoizationUnderLateAborts:
    """Late ABORTs: memos are per-snapshot, so a new index sees new truth."""

    def _two_level_behavior(self, abort_parent):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        top = b.begin_top("t")
        child = T("t", "c")
        b.begin(child)
        b.write(child, "w", "x", 5)
        b.commit(child)
        if abort_parent:
            b.abort(top)
        else:
            b.commit(top)
        return b.build(), system

    def test_orphan_and_visibility_flip_with_a_late_abort(self):
        committed, system = self._two_level_behavior(abort_parent=False)
        aborted, _ = self._two_level_behavior(abort_parent=True)
        access = T("t", "c", "w")
        hist_ok = HistoryIndex(committed, system)
        hist_ab = HistoryIndex(aborted, system)
        # memoized answers agree with the naive StatusIndex walk...
        for hist, behavior in ((hist_ok, committed), (hist_ab, aborted)):
            naive = StatusIndex(behavior)
            for txn in (T("t"), T("t", "c"), access):
                assert hist.is_orphan(txn) == naive.is_orphan(txn), txn
                assert hist.is_visible(txn, ROOT) == naive.is_visible(txn, ROOT)
        # ...and the abort actually flips them
        assert not hist_ok.is_orphan(access)
        assert hist_ok.is_visible(access, ROOT)
        assert hist_ab.is_orphan(access)
        assert not hist_ab.is_visible(access, ROOT)

    def test_memo_is_hit_on_repeated_queries(self):
        behavior, system = self._two_level_behavior(abort_parent=True)
        metrics = MetricsRegistry()
        hist = HistoryIndex(behavior, system, metrics)
        access = T("t", "c", "w")
        assert not hist.is_visible(access, ROOT)
        misses = metrics.snapshot()["counters"][
            "history.index.visibility.memo_misses"
        ]
        for _ in range(5):
            assert not hist.is_visible(access, ROOT)
        counters = metrics.snapshot()["counters"]
        assert counters["history.index.visibility.memo_misses"] == misses
        assert counters["history.index.visibility.memo_hits"] >= 5

    def test_orphan_memo_covers_descendants_of_the_aborted_parent(self):
        behavior, system = self._two_level_behavior(abort_parent=True)
        hist = HistoryIndex(behavior, system)
        # querying the deepest name first populates the whole chain's memo
        assert hist.is_orphan(T("t", "c", "w"))
        assert hist.is_orphan(T("t", "c"))
        assert hist.is_orphan(T("t"))
        assert not hist.is_orphan(ROOT)


class TestConflictMachinery:
    def test_conflict_cache_memoizes_verdicts(self):
        cache = ConflictCache()
        spec = rw_system("x").spec(ObjectName("x"))
        from repro import OK, ReadOp, WriteOp

        assert cache.conflicts(spec, WriteOp(1), OK, ReadOp(), 1)
        assert cache.misses == 1 and cache.hits == 0
        assert cache.conflicts(spec, WriteOp(1), OK, ReadOp(), 1)
        assert cache.misses == 1 and cache.hits == 1
        assert not cache.conflicts(spec, ReadOp(), 0, ReadOp(), 0)
        assert len(cache) == 2

    def test_read_runs_are_skipped_but_edges_are_identical(self):
        """The batch engine's pair scan for specs without the read/write
        marker compares a read only with later writers; its edges equal
        the definitional all-pairs scan's."""
        from repro.core.columnar import ColumnarHistory, build_columnar_graph
        from repro.core.names import SystemType
        from repro.core.rw_semantics import RWSpec

        class OpaqueRWSpec(RWSpec):
            # hide the structural marker: forces the pair scan
            conflicts_iff_writer = False

        system = SystemType({ObjectName("x"): OpaqueRWSpec(initial=0)})
        b = BehaviorBuilder(system)
        txns = [b.begin_top(f"t{i}") for i in range(6)]
        for i, txn in enumerate(txns):
            if i == 3:
                b.write(txn, "w", "x", 9)
            else:
                b.read(txn, "r", "x", 0 if i < 3 else 9)
        for txn in txns:
            b.commit(txn)
        behavior = b.build()
        metrics = MetricsRegistry()
        store = ColumnarHistory(system, metrics=metrics)
        store.extend(behavior)
        engine_edges = sorted(
            (e.source, e.target, e.kind)
            for e in build_columnar_graph(store).edges()
            if e.kind == "conflict"
        )
        naive_edges = conflict_pairs(behavior, system, StatusIndex(behavior))
        assert engine_edges == [(e.source, e.target, e.kind) for e in naive_edges]
        counters = metrics.snapshot()["counters"]
        # 6 ops, 1 writer: 15 all-pairs, only 5 involve the writer
        assert counters["history.columnar.conflict.pairs_checked"] == 5
        assert counters["history.columnar.conflict.pairs_skipped_read_runs"] == 10

    def test_index_built_with_metrics_emits_history_index_counters(self):
        behavior, system = lost_update_behavior()
        metrics = MetricsRegistry()
        hist = HistoryIndex(behavior, system, metrics)
        assert conflict_pairs(behavior, system, hist)
        counters = metrics.snapshot()["counters"]
        assert counters["history.index.builds"] == 1
        assert counters["history.index.events"] == len(behavior)
        assert counters["history.index.visibility.memo_misses"] >= 1
        # certify runs the columnar engine: it builds no index with metrics
        engine = MetricsRegistry()
        assert certify(behavior, system, metrics=engine).cycle is not None
        counters = engine.snapshot()["counters"]
        assert counters["history.columnar.builds"] == 1
        assert not any(name.startswith("history.index.") for name in counters)
