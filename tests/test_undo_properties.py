"""Property-based tests for U_X: the invariants behind Lemmas 20-22.

Random well-formed environments drive a single undo logging object over
each built-in data type; after every step we check:

* Lemma 20: the log equals operations(beta) minus descendants of
  transactions whose abort was informed after their operation;
* Lemma 21(2): removing the descendants of any set of not-yet-committed
  transactions from the log leaves a legal behavior of S_X;
* Lemma 22: of two conflicting responses, the earlier issuer is a local
  orphan or locally visible to the later issuer.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Create, InformAbort, InformCommit, RequestCommit
from repro.core.names import Access, ObjectName, SystemType, TransactionName
from repro.core.operations import Operation
from repro.locking.visibility import is_local_orphan, is_locally_visible
from repro.spec.builtin import (
    BalanceRead,
    BankAccountType,
    CounterInc,
    CounterRead,
    CounterType,
    Dequeue,
    Enqueue,
    QueueType,
    SetInsert,
    SetMember,
    SetRemove,
    SetType,
)
from repro.undo.logging import UndoLoggingObject

C = ObjectName("c")


def sample_spec_and_op(rng: random.Random, which: int):
    if which == 0:
        spec = CounterType(initial=0)

        def sample():
            return (
                CounterRead() if rng.random() < 0.3 else CounterInc(rng.randrange(1, 4))
            )

    elif which == 1:
        spec = BankAccountType(initial=20)

        def sample():
            roll = rng.random()
            if roll < 0.25:
                return BalanceRead()
            from repro.spec.builtin import Deposit, Withdraw

            if roll < 0.6:
                return Withdraw(rng.randrange(1, 15))
            return Deposit(rng.randrange(1, 15))

    elif which == 2:
        spec = SetType()

        def sample():
            roll = rng.random()
            element = rng.randrange(3)
            if roll < 0.4:
                return SetInsert(element)
            if roll < 0.7:
                return SetRemove(element)
            return SetMember(element)

    else:
        spec = QueueType()

        def sample():
            if rng.random() < 0.5:
                return Enqueue(rng.randrange(3))
            return Dequeue()

    return spec, sample


def random_run(seed: int, accesses: int = 7, steps: int = 70):
    rng = random.Random(seed)
    spec, sample = sample_spec_and_op(rng, rng.randrange(4))
    system = SystemType({C: spec})
    names = []
    for i in range(accesses):
        path = [f"t{rng.randrange(3)}"]
        if rng.random() < 0.5:
            path.append(f"u{rng.randrange(2)}")
        path.append(f"a{i}")
        name = TransactionName(tuple(path))
        system.register_access(name, Access(C, sample()))
        names.append(name)
    obj = UndoLoggingObject(C, system)
    state = obj.initial_state()
    trace = []
    created, responded, informed_commit, informed_abort = set(), set(), set(), set()

    for _ in range(steps):
        actions = []
        for name in names:
            if name not in created:
                actions.append(Create(name))
        actions.extend(obj.enabled_outputs(state))
        for name in responded | {n.parent for n in informed_commit if n.depth > 1}:
            if name not in informed_commit and name not in informed_abort:
                actions.append(InformCommit(C, name))
        for name in names:
            for ancestor in name.ancestors():
                if (
                    not ancestor.is_root
                    and ancestor not in informed_abort
                    and ancestor not in informed_commit
                ):
                    actions.append(InformAbort(C, ancestor))
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


def log_pairs(system, log):
    return tuple(
        (system.access(entry.transaction).op, entry.value) for entry in log
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lemma20_log_contents(seed):
    system, obj, trace = random_run(seed)
    for prefix, state in replay_states(obj, trace):
        expected = []
        for position, action in enumerate(prefix):
            if not isinstance(action, RequestCommit):
                continue
            aborted_after = any(
                isinstance(later, InformAbort)
                and later.transaction.is_ancestor_of(action.transaction)
                for later in prefix[position + 1 :]
            )
            if not aborted_after:
                expected.append(Operation(action.transaction, action.value))
        assert list(state.operations) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_log_is_always_legal(seed):
    system, obj, trace = random_run(seed)
    spec = system.spec(C)
    for _, state in replay_states(obj, trace):
        assert spec.is_legal(log_pairs(system, state.operations))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lemma21_removing_uncommitted_descendants_keeps_legality(seed):
    system, obj, trace = random_run(seed)
    spec = system.spec(C)
    rng = random.Random(seed + 1)
    for prefix, state in replay_states(obj, trace):
        issuers = {entry.transaction for entry in state.operations}
        uncommitted_roots = {
            ancestor
            for issuer in issuers
            for ancestor in issuer.ancestors()
            if not ancestor.is_root and ancestor not in state.committed
        }
        if not uncommitted_roots:
            continue
        doomed = {t for t in uncommitted_roots if rng.random() < 0.5}
        survivors = tuple(
            entry
            for entry in state.operations
            if not any(t.is_ancestor_of(entry.transaction) for t in doomed)
        )
        assert spec.is_legal(log_pairs(system, survivors)), (doomed, state.operations)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lemma22_conflicts_orphan_or_locally_visible(seed):
    system, obj, trace = random_run(seed)
    spec = system.spec(C)
    responses = [(i, a) for i, a in enumerate(trace) if isinstance(a, RequestCommit)]
    for i, (pos1, first) in enumerate(responses):
        op1 = system.access(first.transaction).op
        for pos2, second in responses[i + 1 :]:
            op2 = system.access(second.transaction).op
            if not spec.conflicts(op1, first.value, op2, second.value):
                continue
            prefix = trace[:pos2]
            assert is_local_orphan(prefix, C, first.transaction) or is_locally_visible(
                prefix, C, first.transaction, second.transaction
            ), (first, second)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_responses_unique(seed):
    system, obj, trace = random_run(seed)
    seen = set()
    for action in trace:
        if isinstance(action, RequestCommit):
            assert action.transaction not in seen
            seen.add(action.transaction)
