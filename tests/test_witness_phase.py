"""The batch certifier's witness phase: dense ids, fail-closed, one-pass checks.

``certify`` runs one witness phase (sibling order, witness build, serial
replay, projection check).  The order and the build run on the columnar
store's dense ids; they must return exactly what
``Digraph.topological_sort`` over the materialised graph and
:func:`build_witness` over a :class:`HistoryIndex` return, which the
dense-phase tests diff on a wide log, on the 300-seed generators and on
the mutation corpus.  The two checks run in one pass each:
:func:`witness_projection_problems` groups the witness ``gamma`` by
transaction to test ``gamma | T == beta | T`` for every visible ``T``,
and :func:`object_replay_problems` groups it by object to replay each
specification.  The definitional loops — one full projection scan per
transaction or per object — live here as the reference, diffed against
the one-pass code on seeded witnesses and on tampered ones.
"""

import random

import pytest

from repro import (
    EagerInformPolicy,
    MossRWLockingObject,
    UndoLoggingObject,
    WorkloadConfig,
    generate_workload,
    make_generic_system,
    run_system,
)
from repro.core import certify
from repro.core.actions import Commit, ReportCommit, RequestCommit, transaction_of
from repro.core.columnar import ColumnarSerializationGraph
from repro.core.correctness import (
    WitnessError,
    _visible_transactions,
    build_witness,
    object_replay_problems,
    validate_serial_behavior,
    witness_projection_problems,
)
from repro.core.graph import CycleError
from repro.core.names import ROOT
from repro.core.serialization_graph import SerializationGraph
from repro.core.events import project_object, project_transaction, serial_projection
from repro.core.history import HistoryIndex
from repro.core.operations import (
    is_serial_object_well_formed,
    operation_payloads,
    operations_of_object,
)
from repro.obs import MetricsRegistry
from repro.scenarios import build_scenario, scenario_names
from repro.sim.workload import CounterKind, RWKind
from repro.stream import StreamWorkload, commit_as_you_go

from conftest import lost_update_behavior, reference_certify
from test_core_properties import random_simple_behavior
from test_online import random_contended_behavior


def reference_projection_problems(witness, serial, visible, index):
    """``gamma | T == beta | T`` by definition: one scan of ``gamma`` per T."""
    problems = []
    for transaction in visible:
        if project_transaction(witness, transaction) != project_transaction(
            serial, transaction, index
        ):
            problems.append(f"witness projection differs at {transaction}")
    return problems


def reference_object_problems(behavior, system_type):
    """Each object's spec replayed over a full-scan ``behavior | X``."""
    problems = []
    for obj in system_type.object_names():
        projection = project_object(behavior, obj, system_type)
        if not is_serial_object_well_formed(projection):
            problems.append(f"object {obj}: projection not serial-object well-formed")
            continue
        ops = operations_of_object(projection, obj, system_type)
        if not system_type.spec(obj).is_legal(operation_payloads(ops, system_type)):
            problems.append(f"object {obj}: operation sequence illegal for the spec")
    return problems


def simulated_run(seed):
    """A nested generic run, depth 2: Moss over read/write objects on odd
    seeds, undo logging over counters on even ones."""
    kind, factory = (
        (RWKind(), MossRWLockingObject) if seed % 2 else (CounterKind(), UndoLoggingObject)
    )
    system_type, programs = generate_workload(
        WorkloadConfig(seed=seed, top_level=6, objects=3, max_depth=2, kind=kind)
    )
    result = run_system(
        make_generic_system(system_type, programs, factory),
        EagerInformPolicy(seed=seed),
        system_type,
        resolve_deadlocks=True,
    )
    return result.behavior, system_type


def seeded_corpus():
    """Certified behaviors of the seeded generators, with their witnesses."""
    cases = [random_simple_behavior(seed, steps=30) for seed in range(40)]
    cases += [build_scenario(name)[:2] for name in scenario_names()]
    cases += [simulated_run(seed) for seed in range(32)]
    corpus = []
    for behavior, system_type in cases:
        certificate = certify(behavior, system_type)
        if certificate.certified:
            assert certificate.witness_problems == []
            corpus.append((behavior, system_type, certificate.witness))
    return corpus


def tamperings(witness, system_type, rng):
    """``witness`` with one access's REQUEST_COMMIT value changed, with one
    event dropped, and with two events of one transaction's local
    sequence swapped (each when the witness has such events)."""
    out = {}
    accesses = [
        i
        for i, action in enumerate(witness)
        if isinstance(action, RequestCommit) and system_type.is_access(action.transaction)
    ]
    if accesses:
        i = rng.choice(accesses)
        tampered = list(witness)
        tampered[i] = RequestCommit(witness[i].transaction, ("tampered", witness[i].value))
        out["value"] = tuple(tampered)
    owned = [i for i, action in enumerate(witness) if transaction_of(action) is not None]
    if owned:
        i = rng.choice(owned)
        out["drop"] = witness[:i] + witness[i + 1 :]
    local = {}
    for i, action in enumerate(witness):
        transaction = transaction_of(action)
        if transaction is not None:
            local.setdefault(transaction, []).append(i)
    swappable = [
        positions
        for positions in local.values()
        if len(set(witness[i] for i in positions)) > 1
    ]
    if swappable:
        positions = rng.choice(swappable)
        i, j = sorted(rng.sample(positions, 2))
        while witness[i] == witness[j]:
            i, j = sorted(rng.sample(positions, 2))
        tampered = list(witness)
        tampered[i], tampered[j] = tampered[j], tampered[i]
        out["swap"] = tuple(tampered)
    return out


@pytest.fixture(scope="module")
def corpus():
    return seeded_corpus()


class TestOnePassChecksMatchTheDefinitions:
    def test_corpus_is_nested_and_large_enough(self, corpus):
        assert len(corpus) >= 60
        depths = {
            transaction.depth
            for _, _, witness in corpus
            for transaction in map(transaction_of, witness)
            if transaction is not None
        }
        assert max(depths) >= 2

    def test_seeded_witnesses(self, corpus):
        for behavior, system_type, witness in corpus:
            serial = serial_projection(behavior)
            index = HistoryIndex(serial, system_type)
            visible = _visible_transactions(index)
            assert witness_projection_problems(
                witness, visible, index.project_transaction
            ) == reference_projection_problems(witness, serial, visible, index) == []
            assert object_replay_problems(witness, system_type) == (
                reference_object_problems(witness, system_type)
            ) == []

    def test_tampered_witnesses(self, corpus):
        rng = random.Random(13)
        seen = dict.fromkeys(("value", "drop", "swap"), 0)
        for behavior, system_type, witness in corpus:
            serial = serial_projection(behavior)
            index = HistoryIndex(serial, system_type)
            visible = _visible_transactions(index)
            for kind, tampered in tamperings(witness, system_type, rng).items():
                seen[kind] += 1
                projection = witness_projection_problems(
                    tampered, visible, index.project_transaction
                )
                assert projection == reference_projection_problems(
                    tampered, serial, visible, index
                ), kind
                # every owned event of a witness belongs to a visible
                # transaction, so each tampering shows in some projection
                assert projection, kind
                objects = object_replay_problems(tampered, system_type)
                assert objects == reference_object_problems(tampered, system_type)
                problems = validate_serial_behavior(tampered, system_type)
                assert problems[len(problems) - len(objects) :] == objects
        assert min(seen.values()) >= 30, seen


class TestFailClosed:
    @pytest.mark.parametrize(
        "mutant, count",
        [("shuffled", 5), ("missing first event", 1)],
    )
    def test_every_lane_rejects_serial_mutants(self, mutant, count):
        behavior, system_type, _ = build_scenario("serial")
        behavior = list(behavior)
        if mutant == "shuffled":
            behavior = random.Random(1).sample(behavior, len(behavior))
        else:
            behavior = behavior[1:]
        registry = MetricsRegistry()
        certificate = certify(behavior, system_type, metrics=registry)
        assert not certificate.certified
        assert certificate.graph_is_acyclic and not certificate.arv_violations
        assert len(certificate.witness_problems) == count
        text = certificate.explain()
        assert text.startswith("NOT certified")
        for problem in certificate.witness_problems:
            assert f"witness: {problem}" in text
        counters = registry.snapshot()["counters"]
        assert counters["certify.rejected"] == 1
        assert counters["certify.rejected.witness"] == 1
        assert "certify.certified" not in counters
        reference = reference_certify(behavior, system_type)
        assert not reference.certified
        assert reference.witness_problems == certificate.witness_problems

    def test_accepted_runs_count_no_witness_rejection(self):
        behavior, system_type, _ = build_scenario("serial")
        registry = MetricsRegistry()
        assert certify(behavior, system_type, metrics=registry).certified
        counters = registry.snapshot()["counters"]
        assert counters["certify.certified"] == 1
        assert "certify.rejected.witness" not in counters
        assert reference_certify(behavior, system_type).certified


# ---------------------------------------------------------------------------
# The dense order and build against the object-graph reference
# ---------------------------------------------------------------------------


def wide_log(top_level, seed, delay=0):
    """A serial ``commit_as_you_go`` stream: ``top_level`` children of T0.

    With ``delay``, each top-level commit is also reported to T0, the
    reports held back and released in a shuffled batch every ``delay``
    tops, so that several of T0's children wait in the builder's heap
    when a report arrives.
    """
    system_type, actions = commit_as_you_go(
        StreamWorkload(top_level=top_level, window=1, seed=seed)
    )
    if not delay:
        return tuple(actions), system_type
    rng = random.Random(seed)
    values = {}
    held = []
    out = []
    for action in actions:
        out.append(action)
        if isinstance(action, RequestCommit) and action.transaction.depth == 1:
            values[action.transaction] = action.value
        if isinstance(action, Commit) and action.transaction.depth == 1:
            held.append(ReportCommit(action.transaction, values[action.transaction]))
            if len(held) == delay:
                out += rng.sample(held, len(held))
                held = []
    return tuple(out + held), system_type


def assert_order_is_the_digraph_sort(order, graph):
    """``order`` ranks each group of the (now materialised) ``graph``
    exactly as ``Digraph.topological_sort`` does, and ranks nothing else."""
    ranked = 0
    for parent in graph.parents():
        expected = graph.graph_for(parent).topological_sort()
        assert order.sorted_children(parent, expected[::-1]) == expected, parent
        assert all(order.holds(a, b) for a, b in zip(expected, expected[1:]))
        ranked += len(expected)
    assert repr(order) == f"SiblingOrder(ordered_children={ranked}, extra_pairs=0)"


def reference_witness(behavior, system_type, graph):
    """The witness and its problems by the object lane: the base-class
    sibling order, ``build_witness`` and both checks over a HistoryIndex."""
    serial = serial_projection(behavior)
    index = HistoryIndex(serial, system_type)
    order = SerializationGraph.to_sibling_order(graph)
    try:
        witness = build_witness(serial, system_type, order, index)
    except WitnessError as exc:
        return None, [str(exc)]
    problems = validate_serial_behavior(witness, system_type)
    if not problems:
        problems = witness_projection_problems(
            witness, sorted(_visible_transactions(index)), index.project_transaction
        )
    return witness, problems


def assert_dense_phase_matches(behavior, system_type):
    """``certify``'s order, witness and problems equal the object lane's;
    returns the certificate (None-witness phases are skipped)."""
    certificate = certify(behavior, system_type)
    if certificate.cycle is not None or certificate.arv_violations:
        assert certificate.order is None and certificate.witness is None
        return certificate
    graph = certificate.graph
    assert isinstance(graph, ColumnarSerializationGraph)
    assert_order_is_the_digraph_sort(certificate.order, graph)
    witness, problems = reference_witness(behavior, system_type, graph)
    assert certificate.witness == witness
    assert certificate.witness_problems == problems
    assert certificate.certified == (not problems)
    return certificate


class TestDensePhaseMatchesTheObjectLane:
    def test_wide_log(self):
        behavior, system_type = wide_log(1100, seed=21)
        certificate = assert_dense_phase_matches(behavior, system_type)
        assert certificate.certified
        children = certificate.graph.graph_for(ROOT).nodes()
        assert len(children) >= 1000
        assert len(certificate.witness) == len(behavior)

    def test_delayed_reports_pull_pending_siblings(self):
        """Reports released in shuffled batches: each report first runs
        the pending children the order ranks below it.  (Every report
        precedes all later requests, so the graph has quadratically many
        precedes edges; the reference builder is quadratic in T0's
        children, hence the smaller log.)"""
        behavior, system_type = wide_log(300, seed=21, delay=7)
        certificate = assert_dense_phase_matches(behavior, system_type)
        assert certificate.certified
        reports = [a for a in behavior if isinstance(a, ReportCommit)]
        assert sum(a.transaction.depth == 1 for a in reports) == 300

    def test_300_generator_seeds(self):
        witnessed = rejected = 0
        for seed in range(220):
            behavior, system_type = random_simple_behavior(seed, steps=30)
            certificate = assert_dense_phase_matches(behavior, system_type)
            witnessed += certificate.witness is not None
            rejected += not certificate.certified
        for seed in range(80):
            behavior, system_type = random_contended_behavior(seed)
            certificate = assert_dense_phase_matches(behavior, system_type)
            witnessed += certificate.witness is not None
        assert witnessed > 150 and rejected > 0

    def test_mutation_corpus(self):
        # imported here: the mutation suite imports this module's runs
        from test_mutation_agreement import mutant_corpus

        problems_seen = 0
        for label, behavior, system_type in mutant_corpus():
            certificate = assert_dense_phase_matches(behavior, system_type)
            problems_seen += bool(certificate.witness_problems)
        # the corpus reaches the builder's and the checks' failure paths
        assert problems_seen > 50

    def test_cyclic_graph_raises_the_object_graphs_cycle(self):
        behavior, system_type = lost_update_behavior()
        certificate = certify(behavior, system_type)
        assert certificate.cycle is not None
        with pytest.raises(CycleError) as dense:
            certificate.graph.to_sibling_order()
        materialised = certify(behavior, system_type).graph
        materialised.parents()
        with pytest.raises(CycleError) as reference:
            materialised.to_sibling_order()
        assert dense.value.cycle == reference.value.cycle
        assert str(dense.value) == str(reference.value)


class TestNoObjectIndexOnTheAcceptedPath:
    @pytest.mark.parametrize("validate_input", [False, True])
    def test_certify_builds_no_history_index_and_no_digraphs(
        self, monkeypatch, validate_input
    ):
        behavior, system_type = simulated_run(3)

        def forbidden(*args, **kwargs):
            raise AssertionError("certify left the dense store")

        monkeypatch.setattr(HistoryIndex, "__init__", forbidden)
        monkeypatch.setattr(ColumnarSerializationGraph, "_ensure", forbidden)
        certificate = certify(behavior, system_type, validate_input=validate_input)
        assert certificate.certified and certificate.witness
