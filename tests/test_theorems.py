"""Integration tests: the paper's theorems validated end-to-end.

These are the executable analogues of the paper's main results:

* Theorem 17 — every finite behavior of a generic system built from Moss
  locking objects is serially correct for T0;
* Theorem 25 — likewise for undo logging objects over arbitrary types;
* Theorem 8's proof internals — the topologically sorted sibling order is
  suitable, and the constructive witness validates;
* agreement with the classical theory on depth-1 (flat) behaviors;
* agreement with the brute-force oracle on small instances.
"""

import pytest

from repro.classical.histories import history_to_nested_behavior
from repro.classical.sgt import classical_edges, is_conflict_serializable
from repro.classical.two_phase_locking import FlatScript, run_strict_2pl
from repro.core.correctness import certify
from repro.core.events import serial_projection
from repro.core.names import ROOT
from repro.core.oracle import oracle_serially_correct
from repro.core.serialization_graph import build_serialization_graph
from repro.core.sibling_order import is_suitable
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import (
    EagerInformPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
)
from repro.sim.workload import (
    BankAccountKind,
    CounterKind,
    MapKind,
    QueueKind,
    RegisterKind,
    RWKind,
    SetKind,
    WorkloadConfig,
    generate_workload,
)
from repro.undo.logging import UndoLoggingObject


def moss_run(seed, policy=None, **config_kw):
    defaults = dict(seed=seed, top_level=4, objects=3)
    defaults.update(config_kw)
    system_type, programs = generate_workload(WorkloadConfig(**defaults))
    system = make_generic_system(system_type, programs, MossRWLockingObject)
    policy = policy or EagerInformPolicy(seed=seed)
    return run_system(system, policy, system_type, max_steps=6000), system_type


def undo_run(seed, kind, policy=None, **config_kw):
    defaults = dict(seed=seed, top_level=4, objects=2, kind=kind)
    defaults.update(config_kw)
    system_type, programs = generate_workload(WorkloadConfig(**defaults))
    system = make_generic_system(system_type, programs, UndoLoggingObject)
    policy = policy or EagerInformPolicy(seed=seed)
    return run_system(system, policy, system_type, max_steps=6000), system_type


class TestTheorem17:
    @pytest.mark.parametrize("seed", range(8))
    def test_moss_eager_informs(self, seed):
        result, system_type = moss_run(seed)
        certificate = certify(result.behavior, system_type)
        assert certificate.certified, certificate.explain()
        assert not certificate.witness_problems

    @pytest.mark.parametrize("seed", range(8))
    def test_moss_random_policy(self, seed):
        result, system_type = moss_run(seed, policy=RandomPolicy(seed))
        certificate = certify(result.behavior, system_type)
        assert certificate.certified, certificate.explain()
        assert not certificate.witness_problems

    @pytest.mark.parametrize("seed", range(4))
    def test_moss_with_aborts(self, seed):
        policy = AbortInjector(RandomPolicy(seed), abort_rate=0.25, seed=seed)
        result, system_type = moss_run(seed, policy=policy)
        certificate = certify(result.behavior, system_type)
        assert certificate.certified, certificate.explain()
        assert not certificate.witness_problems

    def test_moss_deep_nesting(self):
        result, system_type = moss_run(
            99, max_depth=3, subtransaction_probability=0.6, top_level=3
        )
        certificate = certify(result.behavior, system_type)
        assert certificate.certified, certificate.explain()
        assert not certificate.witness_problems

    def test_moss_prefixes_also_certified(self):
        # serial correctness holds for every finite behavior, hence for
        # every prefix of a run
        result, system_type = moss_run(5)
        behavior = result.behavior
        for cut in range(0, len(behavior) + 1, 7):
            certificate = certify(behavior[:cut], system_type)
            assert certificate.certified, (cut, certificate.explain())


class TestTheorem25:
    @pytest.mark.parametrize(
        "kind",
        [CounterKind(), SetKind(), BankAccountKind(), QueueKind(), RegisterKind(),
         MapKind()],
        ids=["counter", "set", "bank", "queue", "register", "map"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_undo_types(self, kind, seed):
        result, system_type = undo_run(seed, kind)
        certificate = certify(result.behavior, system_type)
        assert certificate.certified, certificate.explain()
        assert not certificate.witness_problems

    @pytest.mark.parametrize("seed", range(4))
    def test_undo_with_aborts(self, seed):
        policy = AbortInjector(RandomPolicy(seed), abort_rate=0.25, seed=seed)
        result, system_type = undo_run(seed, CounterKind(), policy=policy)
        certificate = certify(result.behavior, system_type)
        assert certificate.certified, certificate.explain()
        assert not certificate.witness_problems


class TestTheorem8Internals:
    def test_derived_order_is_suitable(self):
        result, system_type = moss_run(11)
        serial = serial_projection(result.behavior)
        graph = build_serialization_graph(serial, system_type)
        order = graph.to_sibling_order()
        assert is_suitable(order, serial, ROOT)

    def test_certificate_carries_acyclic_graph(self):
        result, system_type = moss_run(12)
        certificate = certify(result.behavior, system_type)
        assert certificate.graph.is_acyclic()
        assert certificate.order is not None


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(5))
    def test_certified_small_runs_accepted_by_oracle(self, seed):
        result, system_type = moss_run(seed, top_level=3, objects=2, max_calls=2)
        certificate = certify(result.behavior, system_type)
        assert certificate.certified
        assert oracle_serially_correct(
            result.behavior, system_type, max_orders=5000
        )


class TestClassicalAgreement:
    """E5: on depth-1 trees the nested construction matches classical SGT."""

    @pytest.mark.parametrize("seed", range(10))
    def test_edges_agree_on_2pl_histories(self, seed):
        import random

        rng = random.Random(seed)
        scripts = [
            FlatScript.random(f"T{i}", objects=3, length=3, rng=rng)
            for i in range(4)
        ]
        history, _ = run_strict_2pl(scripts, seed=seed)
        behavior, system_type = history_to_nested_behavior(history)
        graph = build_serialization_graph(behavior, system_type)
        # compare only the top-level sibling edges: the nested graph also
        # orders each flat transaction's *own* accesses (SG(beta, Ti)),
        # which the classical graph has no counterpart for
        nested_conflicts = {
            (edge.source.path[0], edge.target.path[0])
            for edge in graph.edges()
            if edge.kind == "conflict" and edge.parent == ROOT
        }
        assert nested_conflicts == classical_edges(history)

    @pytest.mark.parametrize("seed", range(10))
    def test_2pl_histories_certified(self, seed):
        import random

        rng = random.Random(seed)
        scripts = [
            FlatScript.random(f"T{i}", objects=3, length=3, rng=rng)
            for i in range(4)
        ]
        history, _ = run_strict_2pl(scripts, seed=seed)
        assert is_conflict_serializable(history)
        behavior, system_type = history_to_nested_behavior(history)
        certificate = certify(behavior, system_type)
        assert certificate.certified, certificate.explain()

    @pytest.mark.parametrize("seed", range(12))
    def test_cyclic_agreement_on_random_histories(self, seed):
        # the nested conflict subgraph is cyclic exactly when the classical
        # graph is (precedes edges may only add order, and random histories
        # here have no reports before requests)
        from repro.classical.histories import random_history

        history = random_history(4, 2, 3, seed=seed, write_probability=0.7)
        behavior, system_type = history_to_nested_behavior(history)
        graph = build_serialization_graph(behavior, system_type)
        conflict_only = {
            (edge.source, edge.target)
            for edge in graph.edges()
            if edge.kind == "conflict"
        }
        from repro.core.graph import Digraph

        digraph = Digraph()
        for src, dst in conflict_only:
            digraph.add_edge(src, dst)
        assert digraph.is_acyclic() == is_conflict_serializable(history)
