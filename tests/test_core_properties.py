"""Hypothesis properties of the core sequence machinery.

A pure random generator of *simple behaviors* (arbitrary interleavings
respecting only the simple-database constraints — wilder than anything
the drivers produce, including wrong read values, aborts of running
transactions and unreported completions) feeds invariants of the
projection operators, the visibility relations and the serialization
graph.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import (
    Abort,
    Commit,
    Create,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.events import (
    AffectsRelation,
    StatusIndex,
    clean_projection,
    serial_projection,
    visible_projection,
)
from repro.core.names import ROOT, Access, ObjectName, SystemType, TransactionName
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from repro.core.serialization_graph import build_serialization_graph
from repro.serial.simple_db import check_simple_behavior


def random_simple_behavior(seed: int, steps: int = 40):
    """Generate a random simple behavior plus its system type."""
    rng = random.Random(seed)
    system = SystemType(
        {ObjectName("x"): RWSpec(initial=0), ObjectName("y"): RWSpec(initial=0)}
    )
    behavior = []
    requested, created, completed, reported = set(), set(), set(), set()
    commit_requested = {}
    name_counter = 0

    def new_name():
        nonlocal name_counter
        name_counter += 1
        candidates = [t for t in sorted(created) if not system.is_access(t)] + [ROOT]
        parent = rng.choice(candidates)
        return parent.child(f"n{name_counter}")

    for _ in range(steps):
        options = []
        fresh = new_name()
        options.append(("request", fresh))
        # sorted: set order would make the behavior depend on PYTHONHASHSEED
        for t in sorted(requested - created - completed):
            options.append(("create", t))
        for t in sorted(created - set(commit_requested)):
            options.append(("request_commit", t))
        for t in sorted(set(commit_requested) - completed):
            options.append(("commit", t))
        for t in sorted(requested - completed):
            options.append(("abort", t))
        for t in sorted(completed - reported):
            options.append(("report", t))
        kind, t = rng.choice(options)
        if kind == "request":
            requested.add(t)
            # half the fresh leaves become accesses
            if rng.random() < 0.5 and not any(
                a.is_ancestor_of(t) for a in system.all_accesses()
            ):
                obj = ObjectName(rng.choice(["x", "y"]))
                op = WriteOp(rng.randrange(3)) if rng.random() < 0.5 else ReadOp()
                system.register_access(t, Access(obj, op))
            behavior.append(RequestCreate(t))
        elif kind == "create":
            created.add(t)
            behavior.append(Create(t))
        elif kind == "request_commit":
            if system.is_access(t):
                op = system.access(t).op
                if isinstance(op, WriteOp):
                    value = OK
                else:
                    value = rng.randrange(3)  # often wrong: that's the point
            else:
                value = "done"
            commit_requested[t] = value
            behavior.append(RequestCommit(t, value))
        elif kind == "commit":
            completed.add(t)
            behavior.append(Commit(t))
        elif kind == "abort":
            completed.add(t)
            behavior.append(Abort(t))
        elif kind == "report":
            reported.add(t)
            if t in commit_requested and Commit(t) in behavior:
                behavior.append(ReportCommit(t, commit_requested[t]))
            else:
                behavior.append(ReportAbort(t))
    return tuple(behavior), system


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_generator_produces_simple_behaviors(seed):
    behavior, system = random_simple_behavior(seed)
    assert check_simple_behavior(behavior, system) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_projection_idempotence(seed):
    behavior, system = random_simple_behavior(seed)
    serial = serial_projection(behavior)
    assert serial_projection(serial) == serial
    clean = clean_projection(serial)
    assert clean_projection(clean) == clean


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_visible_subset_of_clean(seed):
    # visible to T0 requires full commit chains; clean only requires no
    # aborted ancestor.  Commits and aborts are disjoint, so visible(T0)
    # events are always clean.
    behavior, system = random_simple_behavior(seed)
    visible = visible_projection(behavior, ROOT)
    clean = set(clean_projection(behavior))
    for action in visible:
        assert action in clean


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_visibility_transitive(seed):
    behavior, system = random_simple_behavior(seed)
    index = StatusIndex(behavior)
    mentioned = list(index.create_requested | {ROOT})[:8]
    for a in mentioned:
        for b in mentioned:
            for c in mentioned:
                if index.is_visible(a, b) and index.is_visible(b, c):
                    assert index.is_visible(a, c), (a, b, c)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_prefix_graph_is_subgraph(seed):
    behavior, system = random_simple_behavior(seed)
    full = {
        (e.source, e.target, e.kind)
        for e in _edges(build_serialization_graph(behavior, system))
    }
    for cut in range(0, len(behavior), 9):
        prefix_edges = {
            (e.source, e.target, e.kind)
            for e in _edges(build_serialization_graph(behavior[:cut], system))
        }
        assert prefix_edges <= full, cut


def _edges(graph):
    return list(graph.edges())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_full_acyclic_implies_prefix_acyclic(seed):
    behavior, system = random_simple_behavior(seed)
    if build_serialization_graph(behavior, system).is_acyclic():
        for cut in range(0, len(behavior), 7):
            assert build_serialization_graph(behavior[:cut], system).is_acyclic()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_affects_pairs_point_forward(seed):
    behavior, system = random_simple_behavior(seed)
    affects = AffectsRelation(behavior)
    for i, j in affects.pairs():
        assert i < j


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_lemma5_rw_and_general_arv_agree(seed):
    """Lemma 5 as a property: the concrete RW definition of appropriate
    return values coincides with the general (replay) definition on
    arbitrary simple behaviors over read/write objects."""
    from repro.core.return_values import (
        has_appropriate_return_values,
        has_appropriate_return_values_rw,
    )

    behavior, system = random_simple_behavior(seed)
    assert has_appropriate_return_values(
        behavior, system
    ) == has_appropriate_return_values_rw(behavior, system)
