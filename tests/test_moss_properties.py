"""Property-based tests for M1_X: the invariants behind Lemmas 9-13.

A random environment drives a single Moss locking object through
generic-object well-formed schedules (creates, responses, informs in
arbitrary interleavings); after every step we check:

* Lemma 9: write lockholders form an ancestor chain, and no conflicting
  locks are held by unrelated transactions;
* Lemma 11: when two conflicting accesses have both responded, the
  earlier one is a local orphan or lock-visible to the later one;
* Lemma 12/13 (value characterisation): the value of the least write
  lockholder equals the final value of the writes lock-visible to it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Create, InformAbort, InformCommit, RequestCommit
from repro.core.names import Access, ObjectName, SystemType, TransactionName
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from repro.locking.moss import (
    MossRWLockingObject,
    least_write_lockholder,
    write_lockholders_form_chain,
)
from repro.locking.visibility import is_local_orphan, is_lock_visible

X = ObjectName("x")


def build_access_universe(rng: random.Random, accesses: int):
    """Random accesses nested at depths 1-3 under a handful of top-levels."""
    system = SystemType({X: RWSpec(initial=0)})
    names = []
    for i in range(accesses):
        top = f"t{rng.randrange(3)}"
        path = [top]
        for level in range(rng.randrange(0, 2)):
            path.append(f"u{rng.randrange(2)}")
        path.append(f"a{i}")
        name = TransactionName(tuple(path))
        if rng.random() < 0.5:
            op = WriteOp(rng.randrange(5))
        else:
            op = ReadOp()
        system.register_access(name, Access(X, op))
        names.append(name)
    return system, names


def random_schedule(seed: int, accesses: int = 6, steps: int = 60):
    """Drive M1_X with a random well-formed environment; return the trace."""
    rng = random.Random(seed)
    system, names = build_access_universe(rng, accesses)
    obj = MossRWLockingObject(X, system)
    state = obj.initial_state()
    trace = []
    created = set()
    responded = set()
    informed_commit = set()
    informed_abort = set()

    def candidates():
        actions = []
        for name in names:
            if name not in created:
                actions.append(Create(name))
        actions.extend(obj.enabled_outputs(state))
        # inform commits: any responded access or any internal node whose
        # relevant child was informed (arbitrary order is allowed; Moss
        # only inherits when leaf-to-root order happens to occur)
        for name in responded | {n.parent for n in informed_commit if n.depth > 1}:
            if name not in informed_commit and name not in informed_abort:
                actions.append(InformCommit(X, name))
        for name in names:
            for ancestor in name.ancestors():
                if (
                    not ancestor.is_root
                    and ancestor not in informed_abort
                    and ancestor not in informed_commit
                ):
                    actions.append(InformAbort(X, ancestor))
        return actions

    for _ in range(steps):
        actions = candidates()
        if not actions:
            break
        action = rng.choice(actions)
        state = obj.effect(state, action)
        trace.append(action)
        if isinstance(action, Create):
            created.add(action.transaction)
        elif isinstance(action, RequestCommit):
            responded.add(action.transaction)
        elif isinstance(action, InformCommit):
            informed_commit.add(action.transaction)
        elif isinstance(action, InformAbort):
            informed_abort.add(action.transaction)
    return system, obj, trace


def replay_states(obj, trace):
    state = obj.initial_state()
    yield (), state
    prefix = []
    for action in trace:
        state = obj.effect(state, action)
        prefix.append(action)
        yield tuple(prefix), state


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lemma9_chain_invariant(seed):
    system, obj, trace = random_schedule(seed)
    for _, state in replay_states(obj, trace):
        assert write_lockholders_form_chain(state)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lemma9_conflicting_locks_are_related(seed):
    system, obj, trace = random_schedule(seed)
    for _, state in replay_states(obj, trace):
        for writer in state.write_lockholders:
            for holder in state.write_lockholders | state.read_lockholders:
                assert writer.is_related_to(holder)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lemma11_conflicts_orphan_or_lock_visible(seed):
    system, obj, trace = random_schedule(seed)
    responses = [
        (i, a) for i, a in enumerate(trace) if isinstance(a, RequestCommit)
    ]
    for i, (pos1, first) in enumerate(responses):
        op1 = system.access(first.transaction).op
        for pos2, second in responses[i + 1 :]:
            op2 = system.access(second.transaction).op
            if not (isinstance(op1, WriteOp) or isinstance(op2, WriteOp)):
                continue
            if first.transaction == second.transaction:
                continue
            prefix = trace[:pos2]
            assert is_local_orphan(prefix, X, first.transaction) or is_lock_visible(
                prefix, X, first.transaction, second.transaction
            ), (first, second)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lemma12_value_reflects_lock_visible_writes(seed):
    system, obj, trace = random_schedule(seed)
    for prefix, state in replay_states(obj, trace):
        for holder in state.write_lockholders:
            if is_local_orphan(prefix, X, holder):
                continue
            visible_writes = [
                action.transaction
                for action in prefix
                if isinstance(action, RequestCommit)
                and isinstance(system.access(action.transaction).op, WriteOp)
                and is_lock_visible(prefix, X, action.transaction, holder)
            ]
            expected = (
                system.access(visible_writes[-1]).op.data if visible_writes else 0
            )
            assert state.value(holder) == expected, (holder, prefix)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_read_values_match_least_writer(seed):
    # the read response value is always the least write lockholder's value
    system, obj, trace = random_schedule(seed)
    state = obj.initial_state()
    for action in trace:
        if isinstance(action, RequestCommit) and isinstance(
            system.access(action.transaction).op, ReadOp
        ):
            assert action.value == state.value(least_write_lockholder(state))
        state = obj.effect(state, action)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_responses_unique_per_access(seed):
    system, obj, trace = random_schedule(seed)
    seen = set()
    for action in trace:
        if isinstance(action, RequestCommit):
            assert action.transaction not in seen
            seen.add(action.transaction)
