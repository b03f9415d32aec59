"""``certify`` agrees with the reference certifier on mutated inputs.

Well-formed generated behaviors exercise only the paths a correct log
takes.  This suite mutates them — one event dropped or duplicated, two
adjacent events swapped, a truncated prefix, a full shuffle — and
certifies every mutant two ways: ``certify`` (the columnar engine) and
the reference certifier chained from the paper-definition phase
functions.  Both must return the same verdict, cycle, ARV diagnostics,
input problems, witness problems and witness, with input validation off
and on, and neither may raise.

The online engine is held to the same corpus: fed every mutant with
compaction off and at three sweep intervals, it must not raise, and its
final verdict must match ``certify(..., construct_witness=False)`` on
``certified`` and on whether ARV violations exist.  Whether a cycle
latched must match too: always without compaction, and with compaction
on every mutant that is still a simple behavior.  After every feed, its
kept ``live_tracked_ops()`` count must equal the walk over what it
retains.
"""

import random
from collections import Counter

import pytest

from repro.core.columnar import ColumnarHistory, build_columnar_graph
from repro.core.correctness import certify
from repro.core.events import serial_projection
from repro.core.online import OnlineCertifier
from repro.core.serialization_graph import build_serialization_graph
from repro.serial.simple_db import check_simple_behavior

from conftest import reference_certify
from test_core_properties import random_simple_behavior
from test_online import random_contended_behavior
from test_online_compaction import walked_live_ops
from test_witness_phase import simulated_run

KINDS = ("drop", "duplicate", "swap", "truncate", "shuffle")
LANES = {"certify": certify, "reference": reference_certify}


def certificate_outcome(certificate):
    """Everything the certifiers must agree on, ARVs as their messages."""
    return (
        certificate.certified,
        certificate.cycle,
        [str(violation) for violation in certificate.arv_violations],
        certificate.input_problems,
        certificate.witness_problems,
        certificate.witness,
    )


def mutate(behavior, kind, rng):
    """``behavior`` with one mutation of ``kind`` applied at random."""
    if kind == "shuffle":
        return tuple(rng.sample(behavior, len(behavior)))
    i = rng.randrange(len(behavior) - 1)
    if kind == "drop":
        return behavior[:i] + behavior[i + 1 :]
    if kind == "duplicate":
        return behavior[: i + 1] + behavior[i:]
    if kind == "swap":
        return behavior[:i] + (behavior[i + 1], behavior[i]) + behavior[i + 2 :]
    return behavior[:i]  # truncate


def mutant_corpus(draws=3):
    """``draws`` mutants of each kind per source behavior, seeded: nested
    Moss and undo runs, random simple behaviors, contended interleavings."""
    sources = [simulated_run(seed) for seed in range(8)]
    sources += [random_simple_behavior(seed, steps=30) for seed in range(40)]
    sources += [random_contended_behavior(seed) for seed in range(20)]
    rng = random.Random(15)
    return [
        (f"source {number} {kind} #{draw}", mutate(tuple(behavior), kind, rng), system)
        for number, (behavior, system) in enumerate(sources)
        for draw in range(draws)
        for kind in KINDS
    ]


@pytest.fixture(scope="module")
def corpus():
    return mutant_corpus()


@pytest.mark.parametrize("validate_input", [False, True])
def test_certify_matches_the_reference_on_every_mutant(corpus, validate_input):
    assert len(corpus) >= 1000
    differences, crashes = [], []
    seen = Counter()
    for label, behavior, system in corpus:
        outcomes = {}
        for lane, run in LANES.items():
            try:
                certificate = run(behavior, system, validate_input=validate_input)
            except Exception as exc:  # a crash fails the sweep like a mismatch
                crashes.append((label, lane, repr(exc)))
            else:
                outcomes[lane] = certificate_outcome(certificate)
        if len(outcomes) < len(LANES):
            continue
        outcome = outcomes.pop("certify")
        if any(other != outcome for other in outcomes.values()):
            differences.append((label, outcome, outcomes))
            continue
        certified, cycle, arvs, input_problems, witness_problems, _ = outcome
        seen["certified" if certified else "rejected"] += 1
        seen["cycle"] += cycle is not None
        seen["arv"] += bool(arvs)
        seen["input"] += bool(input_problems)
        seen["witness"] += bool(witness_problems)
    assert crashes == []
    assert differences == []
    # every rejection cause must occur, or the sweep proves nothing
    causes = ("certified", "rejected", "cycle", "arv", "witness")
    if validate_input:
        causes += ("input",)
    assert all(seen[cause] for cause in causes), seen


def test_name_ranks_and_cycles_on_every_mutant(corpus):
    """The store ranks names by their paths and the columnar graph
    orders its groups by those ranks: the ranks equal a sort of the
    names themselves, and the cycle equals the object graph's, on every
    mutant; a rank taken before more names arrive is not reused."""
    cycles = 0
    for label, behavior, system in corpus:
        serial = serial_projection(behavior)
        store = ColumnarHistory(system)
        store.extend(serial[: len(serial) // 2])
        store.name_rank()
        store.extend(serial[len(serial) // 2 :])
        names = store.txn_names
        by_name = sorted(range(len(names)), key=names.__getitem__)
        assert [by_name.index(dense) for dense in range(len(names))] == (
            store.name_rank()
        ), label
        cycle = build_columnar_graph(store).find_cycle()
        assert cycle == build_serialization_graph(serial, system).find_cycle(), label
        cycles += cycle is not None
    assert cycles > 50


#: compaction sweep intervals the online engine runs at (None: off)
INTERVALS = (None, 1, 3, 64)

#: malformed shuffles on which compaction drops a nested cycle that
#: batch and the uncompacted engine both find; the verdict still
#: rejects them, on ARV.  Online input checks (ROADMAP item 4(b)) are
#: the fix, and they should empty this set.
LOST_NESTED_CYCLES = {
    ("source 50 shuffle #1", 1),
    ("source 50 shuffle #1", 3),
    ("source 54 shuffle #0", 1),
    ("source 54 shuffle #0", 3),
    ("source 58 shuffle #1", 1),
    ("source 58 shuffle #1", 3),
}


def test_online_engine_matches_certify_on_every_mutant(corpus):
    differences, crashes, miscounts, lost_cycles = [], [], [], set()
    simple = 0
    for label, behavior, system in corpus:
        batch = certify(behavior, system, construct_witness=False)
        expected = (batch.certified, bool(batch.arv_violations))
        is_simple = not check_simple_behavior(serial_projection(behavior), system)
        simple += is_simple
        for interval in INTERVALS:
            certifier = OnlineCertifier(
                system,
                compaction=interval is not None,
                compaction_interval=interval or 64,
            )
            try:
                for step, action in enumerate(behavior):
                    certifier.feed(action)
                    if certifier.live_tracked_ops() != walked_live_ops(certifier):
                        miscounts.append((label, interval, step))
                verdict = certifier.verdict()
            except Exception as exc:  # a crash fails the sweep like a mismatch
                crashes.append((label, interval, repr(exc)))
                continue
            if (verdict.certified, bool(verdict.arv_violations)) != expected:
                differences.append((label, interval, verdict, batch.certified))
            if (verdict.cycle is None) != (batch.cycle is None):
                if interval is not None and not is_simple and verdict.cycle is None:
                    lost_cycles.add((label, interval))
                else:
                    differences.append((label, interval, verdict.cycle, batch.cycle))
    assert crashes == []
    assert differences == []
    assert miscounts == []
    assert lost_cycles == LOST_NESTED_CYCLES
    assert simple == 486
