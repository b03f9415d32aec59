"""Tests for the online (incremental) certifier.

The headline property: after any fed prefix, the online verdict equals
the batch certifier's verdict on that prefix — including the
non-monotone ARV dynamics where a late commit makes an earlier
operation visible and flips the legality of operations after it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Commit
from repro.core.correctness import certify
from repro.core.events import serial_projection
from repro.core.online import OnlineCertifier

from conftest import (
    BehaviorBuilder,
    T,
    blind_write_cycle_behavior,
    dirty_read_behavior,
    lost_update_behavior,
    rw_system,
    serial_two_txn_behavior,
)
from test_core_properties import random_simple_behavior


def batch_verdict(prefix, system):
    certificate = certify(prefix, system, construct_witness=False)
    return (
        certificate.certified,
        certificate.has_appropriate_return_values,
        certificate.graph_is_acyclic,
    )


class TestScenarios:
    def test_serial_certified(self):
        behavior, system = serial_two_txn_behavior()
        verdict = OnlineCertifier(system).feed_all(behavior)
        assert verdict.certified

    def test_lost_update_cycle_detected(self):
        behavior, system = lost_update_behavior()
        verdict = OnlineCertifier(system).feed_all(behavior)
        assert not verdict.certified
        assert verdict.cycle is not None

    def test_dirty_read_arv_detected(self):
        behavior, system = dirty_read_behavior()
        verdict = OnlineCertifier(system).feed_all(behavior)
        assert not verdict.certified
        assert verdict.arv_violations

    def test_blind_write_cycle_detected(self):
        behavior, system = blind_write_cycle_behavior()
        verdict = OnlineCertifier(system).feed_all(behavior)
        assert verdict.cycle is not None

    def test_cycle_latches(self):
        behavior, system = lost_update_behavior()
        certifier = OnlineCertifier(system)
        certifier.feed_all(behavior)
        first = certifier.verdict().cycle
        # feeding more unrelated actions never clears the cycle
        b = BehaviorBuilder(system)
        t3 = b.begin_top("t3")
        b.commit(t3)
        for action in b.build():
            certifier.feed(action)
        assert certifier.verdict().cycle == first

    def test_arv_violation_can_heal(self):
        """A read of an uncommitted write is an ARV violation *until* the
        writer's chain commits and the write becomes visible before it."""
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        writer = b.write(t1, "w", "x", 5)  # access commits; t1 does not yet
        b.read(t2, "r", "x", 5)
        b.commit(t2)
        certifier = OnlineCertifier(system)
        certifier.feed_all(b.build())
        assert certifier.verdict().arv_violations  # writer invisible: read of 5 illegal
        certifier.feed(Commit(t1))  # now the write precedes the read, visibly
        verdict = certifier.verdict()
        assert not verdict.arv_violations

    def test_informs_ignored(self):
        from repro.core.actions import InformCommit
        from repro.core.names import ObjectName

        system = rw_system("x")
        certifier = OnlineCertifier(system)
        certifier.feed(InformCommit(ObjectName("x"), T("t")))
        assert certifier.verdict().certified


class TestEquivalenceWithBatch:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_batch_on_every_prefix(self, seed):
        behavior, system = random_simple_behavior(seed, steps=35)
        certifier = OnlineCertifier(system)
        for cut, action in enumerate(behavior, start=1):
            certifier.feed(action)
            online = certifier.verdict()
            certified, arv_ok, acyclic = batch_verdict(behavior[:cut], system)
            assert online.certified == certified, (seed, cut)
            assert (not online.arv_violations) == arv_ok, (seed, cut)
            assert (online.cycle is None) == acyclic, (seed, cut)

    def test_matches_batch_on_driver_run(self):
        from repro.generic.system import make_generic_system
        from repro.locking.moss import MossRWLockingObject
        from repro.sim.driver import run_system
        from repro.sim.policies import EagerInformPolicy
        from repro.sim.workload import WorkloadConfig, generate_workload

        system_type, programs = generate_workload(
            WorkloadConfig(seed=5, top_level=4, objects=3)
        )
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, EagerInformPolicy(seed=5), system_type, resolve_deadlocks=True
        )
        certifier = OnlineCertifier(system_type)
        verdict = certifier.feed_all(result.behavior)
        assert verdict.certified
        assert certify(result.behavior, system_type).certified


def random_contended_behavior(seed, transactions=3, objects=2):
    """A random interleaving of ``transactions`` top-level read-then-write
    transactions over ``objects`` hot objects, committed in random order.

    Interleavings where two transactions both read an object before
    either's write becomes visible produce lost-update SG cycles.
    """
    rng = random.Random(seed)
    names = [f"o{i}" for i in range(objects)]
    system = rw_system(*names)
    b = BehaviorBuilder(system)
    pending = {}
    for i in range(transactions):
        txn = b.begin_top(f"t{i}")
        obj = rng.choice(names)
        pending[txn] = [("r", obj), ("w", obj)]
    while pending:
        txn = rng.choice(sorted(pending))
        kind, obj = pending[txn].pop(0)
        if not pending[txn]:
            del pending[txn]
        if kind == "r":
            b.read(txn, "r", obj, 0)
        else:
            b.write(txn, "w", obj, rng.randrange(1, 97))
    order = sorted(T(f"t{i}") for i in range(transactions))
    rng.shuffle(order)
    for txn in order:
        b.commit(txn)
    return b.build(), system


def naive_cycle_after_each_feed(certifier, behavior):
    """Feed ``behavior``; after every feed that adds an edge, run a full
    DFS over the accumulated graph.  Returns whether any search found a
    cycle: the verdict the Pearce–Kelly latch must agree with."""
    found = False
    edges = 0
    for action in behavior:
        certifier.feed(action)
        graph = certifier.graph
        if graph.edge_count() != edges:
            edges = graph.edge_count()
            found = found or graph.find_cycle() is not None
    return found


class TestIncrementalVsNaiveEngines:
    """The Pearce–Kelly latch against a naive full DFS over the graph."""

    def test_200_seeded_workloads_agree(self):
        rejected_seen = 0
        for seed in range(200):
            behavior, system = random_simple_behavior(seed, steps=30)
            certifier = OnlineCertifier(system)
            naive = naive_cycle_after_each_feed(certifier, behavior)
            verdict = certifier.verdict()
            assert (verdict.cycle is not None) == naive, seed
            certified, arv_ok, acyclic = batch_verdict(behavior, system)
            assert verdict.certified == certified, seed
            assert (not verdict.arv_violations) == arv_ok, seed
            rejected_seen += not verdict.certified
        # the sweep must actually exercise both verdicts
        assert 0 < rejected_seen < 200

    def test_contended_interleavings_agree_and_produce_cycles(self):
        """Random interleavings of read-then-write transactions on shared
        objects — the workload shape that actually closes SG cycles
        (lost-update patterns), which `random_simple_behavior` never does.
        """
        cyclic_seen = 0
        for seed in range(60):
            behavior, system = random_contended_behavior(seed)
            certifier = OnlineCertifier(system)
            naive = naive_cycle_after_each_feed(certifier, behavior)
            verdict = certifier.verdict()
            assert (verdict.cycle is not None) == naive, seed
            assert verdict.certified == batch_verdict(behavior, system)[0], seed
            cyclic_seen += verdict.cycle is not None
        # the sweep must actually exercise the cycle-latch path
        assert cyclic_seen > 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100_000))
    def test_engines_agree_on_every_prefix(self, seed):
        behavior, system = random_simple_behavior(seed, steps=35)
        certifier = OnlineCertifier(system)
        for cut, action in enumerate(behavior, start=1):
            certifier.feed(action)
            naive = certifier.graph.find_cycle()
            assert (certifier.verdict().cycle is None) == (naive is None), (seed, cut)

    def test_incremental_latches_a_real_cycle(self):
        """The latched cycle's consecutive pairs are edges of SG(beta)."""
        behavior, system = lost_update_behavior()
        certifier = OnlineCertifier(system)
        verdict = certifier.feed_all(behavior)
        assert verdict.cycle is not None
        parent, nodes = verdict.cycle
        assert nodes[0] == nodes[-1]
        group = certifier.graph.graph_for(parent)
        for src, dst in zip(nodes, nodes[1:]):
            assert group.has_edge(src, dst)

    def test_incremental_counters(self):
        from repro.obs.metrics import MetricsRegistry

        behavior, system = lost_update_behavior()
        registry = MetricsRegistry()
        OnlineCertifier(system, metrics=registry).feed_all(behavior)
        counters = registry.snapshot()["counters"]
        assert counters["online.incremental.edge_inserts"] >= 2
        assert counters["online.cycle_latched"] == 1
        assert "online.cycle_checks" not in counters  # the naive lane is gone


class TestAbortAndDeadChainEdgeCases:
    """Visibility edge cases around aborts, with the cycle verdict read
    from the Pearce–Kelly latch and from a full DFS over the graph."""

    @pytest.fixture(params=["incremental", "naive"])
    def cycle_of(self, request):
        if request.param == "incremental":
            return lambda certifier: certifier.verdict().cycle
        return lambda certifier: certifier.graph.find_cycle()

    def test_abort_after_latch_keeps_cycle_and_matches_batch(self, cycle_of):
        """An abort kills a *pending* op's edge, never a latched cycle's.

        t3's access would have inserted mid-sequence on the cycle's
        object (triggering revalidation) had its chain committed; the
        abort marks the chain dead instead.  The latched cycle survives
        and the verdict still matches batch certification.
        """
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.read(t1, "r", "x", 0)
        b.read(t2, "r", "x", 0)
        b.write(t1, "w", "x", 1)
        b.write(t2, "w", "x", 2)
        b.commit(t1)
        b.commit(t2)  # lost update: cycle t1 <-> t2 latches here
        certifier = OnlineCertifier(system)
        certifier.feed_all(b.build())
        latched = cycle_of(certifier)
        assert latched is not None
        # t3 writes x but aborts before its chain commits
        b2 = BehaviorBuilder(system)
        t3 = b2.begin_top("t3")
        b2.write(t3, "w", "x", 9)
        b2.abort(t3)
        for action in b2.build():
            certifier.feed(action)
        verdict = certifier.verdict()
        assert cycle_of(certifier) == latched  # the latch is monotone
        full = b.build() + b2.build()
        assert batch_verdict(full, system)[0] == verdict.certified

    def test_dead_chain_operation_never_becomes_visible(self, cycle_of):
        """An access requested under an already-aborted ancestor is dead
        on arrival (`_chain_dead`): no visibility, no edges, no ARV."""
        from repro.core.actions import (
            Abort,
            Create,
            ReportAbort,
            RequestCommit,
            RequestCreate,
        )
        from repro.core.names import Access, ObjectName
        from repro.core.rw_semantics import OK, WriteOp

        system = rw_system("x")
        t1 = T("t1")
        access = t1.child("w")
        system.register_access(access, Access(ObjectName("x"), WriteOp(7)))
        behavior = (
            RequestCreate(t1),
            Abort(t1),          # aborted before ever being created
            ReportAbort(t1),
            RequestCreate(access),
            Create(access),
            RequestCommit(access, OK),
            Commit(access),     # the access chain commits under a dead t1
        )
        certifier = OnlineCertifier(system)
        verdict = certifier.feed_all(behavior)
        assert verdict.certified
        assert cycle_of(certifier) is None
        assert certifier.graph.edge_count() == 0
        certified, arv_ok, acyclic = batch_verdict(behavior, system)
        assert verdict.certified == certified

    def test_abort_triggered_mid_sequence_revalidation(self, cycle_of):
        """A late commit inserts mid-sequence while a competing pending
        write on the same object dies by abort; the suffix revalidates
        against the surviving history and matches batch on every prefix.
        """
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2, t3 = b.begin_top("t1"), b.begin_top("t2"), b.begin_top("t3")
        b.write(t1, "w", "x", 5)   # access committed, t1 still open
        b.write(t3, "w", "x", 8)   # access committed, t3 still open
        b.read(t2, "r", "x", 5)    # legal only once t1's write is visible
        b.commit(t2)
        b.abort(t3)                # t3's write dies: never inserts
        b.commit(t1)               # t1's write inserts *before* t2's read
        behavior = b.build()
        certifier = OnlineCertifier(system)
        for cut, action in enumerate(behavior, start=1):
            certifier.feed(action)
            online = certifier.verdict()
            certified, arv_ok, acyclic = batch_verdict(behavior[:cut], system)
            assert online.certified == certified, cut
            assert (not online.arv_violations) == arv_ok, cut
            assert (cycle_of(certifier) is None) == acyclic, cut
        assert certifier.verdict().certified


class TestEquivalenceOnDriverStreams:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_batch_on_aborting_nested_runs(self, seed):
        from repro.generic.system import make_generic_system
        from repro.locking.moss import MossRWLockingObject
        from repro.sim.driver import run_system
        from repro.sim.faults import AbortInjector
        from repro.sim.policies import RandomPolicy
        from repro.sim.workload import WorkloadConfig, generate_workload

        system_type, programs = generate_workload(
            WorkloadConfig(
                seed=seed, top_level=4, objects=2, max_depth=3,
                subtransaction_probability=0.5,
            )
        )
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        policy = AbortInjector(RandomPolicy(seed), abort_rate=0.15, seed=seed)
        result = run_system(
            system, policy, system_type, max_steps=4000, resolve_deadlocks=True
        )
        certifier = OnlineCertifier(system_type)
        for cut, action in enumerate(result.behavior, start=1):
            certifier.feed(action)
            if cut % 11 == 0 or cut == len(result.behavior):
                online = certifier.verdict()
                certified, arv_ok, acyclic = batch_verdict(
                    result.behavior[:cut], system_type
                )
                assert online.certified == certified, (seed, cut)
                assert (not online.arv_violations) == arv_ok, (seed, cut)
                assert (online.cycle is None) == acyclic, (seed, cut)
