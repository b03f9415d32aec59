"""The batch certifier's witness phase: fail-closed verdicts, one-pass checks.

``certify`` runs one witness phase (sibling order, witness build, serial
replay, projection check).  Its two checks run in one pass each:
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
from repro.core.actions import RequestCommit, transaction_of
from repro.core.correctness import (
    _visible_transactions,
    object_replay_problems,
    validate_serial_behavior,
    witness_projection_problems,
)
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

from conftest import reference_certify
from test_core_properties import random_simple_behavior


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
        for indexed in (True, False):
            reference = reference_certify(behavior, system_type, indexed=indexed)
            assert not reference.certified, indexed
            assert reference.witness_problems == certificate.witness_problems

    def test_accepted_runs_count_no_witness_rejection(self):
        behavior, system_type, _ = build_scenario("serial")
        registry = MetricsRegistry()
        assert certify(behavior, system_type, metrics=registry).certified
        counters = registry.snapshot()["counters"]
        assert counters["certify.certified"] == 1
        assert "certify.rejected.witness" not in counters
        for indexed in (True, False):
            assert reference_certify(behavior, system_type, indexed=indexed).certified
