"""The columnar engine: three-way equivalence and dense-state checks.

``certify`` runs the dense-int struct-of-arrays engine.  It must be
observably identical to the reference certifier chained from the
paper-definition phase functions (same verdicts, same ARV diagnostics,
same cycle witnesses, same graph edges, same serial witnesses), and the
graph those functions build over one shared history index must have the
same edges and cycle.  This suite sweeps 300 seeds across the existing
generators, plus directed cases for the spots where a bitset engine can
silently go wrong: word-size boundaries (>64 transactions), late-ABORT
visibility flips, and contended interleavings with cycle witnesses.
"""

import pytest

from repro.core import certify
from repro.core.columnar import ColumnarHistory, build_columnar_graph
from repro.core.correctness import build_witness  # noqa: F401  (re-exported check)
from repro.core.events import serial_projection
from repro.core.history import HistoryIndex
from repro.core.names import ROOT
from repro.core.serialization_graph import build_serialization_graph
from repro.parallel import CaseVerdict, certify_corpus

from conftest import (
    BehaviorBuilder,
    dirty_read_behavior,
    lost_update_behavior,
    reference_certify,
    rw_system,
    serial_two_txn_behavior,
)
from test_core_properties import random_simple_behavior
from test_online import random_contended_behavior


def graph_edges(certificate):
    return sorted(
        (e.source, e.target, e.kind) for e in certificate.graph.edges()
    )


def assert_lanes_agree(behavior, system, seed=None):
    """``certify`` and the reference certifier give indistinguishable
    certificates, and the object graph over a shared ``HistoryIndex``
    has the reference graph's edges and cycle."""
    reference = reference_certify(behavior, system)
    dense = certify(behavior, system)
    serial = serial_projection(behavior)
    indexed = build_serialization_graph(
        serial, system, HistoryIndex(serial, system)
    )
    assert reference.certified == dense.certified, seed
    assert reference.cycle == dense.cycle == indexed.find_cycle(), seed
    assert [str(v) for v in reference.arv_violations] == [
        str(v) for v in dense.arv_violations
    ], seed
    assert (
        graph_edges(reference)
        == graph_edges(dense)
        == sorted((e.source, e.target, e.kind) for e in indexed.edges())
    ), seed
    assert reference.witness == dense.witness, seed
    return dense


class TestThreeWayEquivalence:
    """reference ≡ indexed graph ≡ certify, 300 seeds across both generators."""

    def test_220_simple_seeds_agree(self):
        rejected_seen = 0
        for seed in range(220):
            behavior, system = random_simple_behavior(seed, steps=30)
            dense = assert_lanes_agree(behavior, system, seed)
            rejected_seen += not dense.certified
        # the sweep must exercise both verdicts, or it proves nothing
        assert 0 < rejected_seen < 220

    def test_80_contended_seeds_agree_on_cycle_witnesses(self):
        cyclic_seen = 0
        for seed in range(80):
            behavior, system = random_contended_behavior(seed)
            dense = assert_lanes_agree(behavior, system, seed)
            cyclic_seen += dense.cycle is not None
        assert cyclic_seen > 0

    @pytest.mark.parametrize(
        "scenario",
        [serial_two_txn_behavior, lost_update_behavior, dirty_read_behavior],
    )
    def test_canonical_scenarios_agree(self, scenario):
        behavior, system = scenario()
        assert_lanes_agree(behavior, system)

    def test_late_abort_flips_orphan_and_visibility_bitsets(self):
        """A parent ABORT arriving after its child's accesses must retire
        the whole subtree from the visible bitset and enter the orphan one."""
        system = rw_system("x")
        build = BehaviorBuilder(system)
        doomed = build.begin_top("doomed")
        build.write(doomed, "w", "x", 41)
        keeper = build.begin_top("keeper")
        build.write(keeper, "w", "x", 7)
        build.commit(keeper)
        # child committed, then the parent aborts late: reads of 41 must
        # not be required, and doomed's write must not reach conflict
        # enumeration in any lane
        build.abort(doomed)
        behavior, _ = build.build(), None
        assert_lanes_agree(behavior, system)
        store = ColumnarHistory(system)
        store.extend(behavior)
        doomed_id = store.txn_id_of(doomed)
        keeper_id = store.txn_id_of(keeper)
        assert store.orphan_flags()[doomed_id] == 1
        assert store.visible_flags()[doomed_id] == 0
        assert store.orphan_flags()[keeper_id] == 0
        assert store.visible_flags()[keeper_id] == 1
        # memoized HistoryIndex answers and flag-byte answers coincide
        index = HistoryIndex(behavior, system)
        for dense, name in enumerate(store.txn_names):
            assert store.orphan_flags()[dense] == index.is_orphan(name), name
            assert store.visible_flags()[dense] == index.is_visible(name, ROOT)

    def test_bitset_boundary_beyond_64_transactions(self):
        """>64 top-level transactions (and >64 events) force the visible
        and writer bitsets across machine-word boundaries; a word-size
        bug would drop edges or visibility for the high transactions."""
        system = rw_system("x")
        build = BehaviorBuilder(system)
        tops = []
        for i in range(70):
            top = build.begin_top(f"t{i:02d}")
            # each top reads then writes the one hot object: every
            # adjacent pair conflicts, across all word boundaries
            build.read(top, "r", "x", 0 if i == 0 else i)
            build.write(top, "w", "x", i + 1)
            build.commit(top)
            tops.append(top)
        behavior = build.build()
        dense = assert_lanes_agree(behavior, system)
        assert len(behavior) > 64 * 7  # comfortably past one word of events
        store = ColumnarHistory(system)
        store.extend(behavior)
        assert len(store.txn_names) > 64
        flags = store.visible_flags()
        for top in tops:
            assert flags[store.txn_id_of(top)] == 1, top
        # the serial chain must certify; all conflict edges found
        assert dense.certified
        assert store.visible_bits().bit_length() > 64

    def test_out_of_order_commits_above_64_transactions_cycle(self):
        """A contended workload stretched past the word boundary still
        yields identical cycle witnesses across lanes."""
        behavior, system = random_contended_behavior(11, transactions=25)
        store = ColumnarHistory(system)
        store.extend(behavior)
        assert len(store.txn_names) > 64  # 25 tops × (1 + 2 accesses) + root
        assert_lanes_agree(behavior, system)


class TestColumnarPlumbing:
    """The columnar engine is reachable from every certifier entry point."""

    def test_corpus_certification_matches_across_lanes(self):
        cases = []
        for seed in range(12):
            behavior, system = random_contended_behavior(seed)
            cases.append((f"case-{seed}", behavior, system))
        reference = []
        for label, behavior, system in cases:
            certificate = reference_certify(
                behavior, system, construct_witness=False
            )
            reference.append(
                CaseVerdict(
                    label,
                    certificate.certified,
                    len(certificate.arv_violations),
                    certificate.cycle is not None,
                    len(behavior),
                )
            )
        assert certify_corpus(cases, jobs=1) == reference

    def test_certify_streams_a_lazy_behavior(self):
        """No materialised list: a generator feeds the columns directly."""
        behavior, system = random_simple_behavior(9, steps=40)
        eager = reference_certify(behavior, system, construct_witness=False)
        lazy = certify(
            (action for action in behavior),
            system,
            construct_witness=False,
        )
        assert eager.certified == lazy.certified
        assert eager.cycle == lazy.cycle

    def test_shared_cache_memoizes_generic_spec_verdicts(self):
        """Without the RW structural marker the engine falls back to the
        memoized pair scan; the store's cache answers a second
        enumeration's verdicts entirely from the dense-id table."""
        from repro.core.names import ObjectName, SystemType
        from repro.core.rw_semantics import RWSpec

        class OpaqueRWSpec(RWSpec):
            # hide the structural marker: forces per-pair verdicts
            conflicts_iff_writer = False

        system = SystemType({ObjectName("x"): OpaqueRWSpec(initial=0)})
        build = BehaviorBuilder(system)
        for i in range(4):
            top = build.begin_top(f"t{i}")
            build.write(top, "w", "x", i)
            build.commit(top)
        behavior = build.build()
        store = ColumnarHistory(system)
        store.extend(behavior)
        cache = store.cache
        first_edges = sorted(store.conflict_edge_ids())
        assert cache.misses > 0
        misses_after_first = cache.misses
        assert sorted(store.conflict_edge_ids()) == first_edges
        # every verdict the second run needed was already memoized
        assert cache.misses == misses_after_first
        assert cache.hits > 0

    def test_rw_bitset_sweep_never_consults_the_spec(self):
        """With the marker present, whole RW objects resolve by bitwise
        sweeps: the store's verdict table stays empty."""
        behavior, system = random_contended_behavior(3)
        store = ColumnarHistory(system)
        store.extend(behavior)
        graph = build_columnar_graph(store)
        reference = reference_certify(behavior, system, construct_witness=False)
        assert graph.find_cycle() == reference.cycle
        assert len(store.cache) == 0  # no per-pair verdicts were ever needed

    def test_graph_materializes_lazily_and_identically(self):
        behavior, system = random_contended_behavior(7)
        serial = serial_projection(behavior)
        store = ColumnarHistory(system)
        store.extend(serial)
        graph = build_columnar_graph(store)
        reference = build_serialization_graph(serial, system)
        # structural queries before materialisation
        assert graph.edge_count() == reference.edge_count()
        assert graph.find_cycle() == reference.find_cycle()
        # walking edges materialises the object digraphs
        assert sorted(
            (e.source, e.target, e.kind) for e in graph.edges()
        ) == sorted((e.source, e.target, e.kind) for e in reference.edges())
        assert graph.parents() == reference.parents()


class TestColumnarStore:
    """Dense-store internals: interning, bitsets, metrics."""

    def test_parent_ids_precede_child_ids(self):
        behavior, system = random_simple_behavior(21, steps=40)
        store = ColumnarHistory(system)
        store.extend(behavior)
        for dense in range(1, len(store.txn_names)):
            assert store.txn_parent[dense] < dense
        assert store.txn_names[0] is ROOT

    def test_non_serial_actions_are_dropped(self):
        from repro.core.actions import InformCommit

        system = rw_system("x")
        store = ColumnarHistory(system)
        build = BehaviorBuilder(system)
        top = build.begin_top("t")
        build.commit(top)
        count = store.extend(build.build())
        before = store.events
        assert not store.append(InformCommit(ROOT, top))
        assert store.events == before == count

    def test_build_metrics_are_emitted(self):
        from repro.obs.metrics import MetricsRegistry

        behavior, system = random_simple_behavior(2, steps=30)
        metrics = MetricsRegistry()
        certify(behavior, system, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["history.columnar.builds"] == 1
        assert snapshot["counters"]["history.columnar.events"] > 0
        assert snapshot["gauges"]["history.columnar.transactions"] > 1
        assert snapshot["counters"]["certify.runs"] == 1
