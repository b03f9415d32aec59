"""Property-based invariants of the general read/update locking automaton.

The analogues of the Moss lemma invariants (Lemmas 9-13), for ``M_X``
over arbitrary data types, checked on randomly driven well-formed
schedules: the update lockholders always form an ancestor chain, locks
conflict only between relatives, and the least update holder's state
equals the replay of the operations lock-visible to it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Create, InformAbort, InformCommit, RequestCommit
from repro.core.names import Access, ObjectName, SystemType, TransactionName
from repro.locking.read_update import ReadUpdateLockingObject
from repro.locking.visibility import is_lock_visible, is_local_orphan
from repro.spec.builtin import (
    BankAccountType,
    CounterInc,
    CounterRead,
    CounterType,
    SetInsert,
    SetMember,
    SetType,
)

C = ObjectName("c")


def build_universe(rng: random.Random):
    which = rng.randrange(3)
    if which == 0:
        spec = CounterType(initial=0)

        def sample():
            return CounterRead() if rng.random() < 0.3 else CounterInc(1)

    elif which == 1:
        spec = SetType()

        def sample():
            element = rng.randrange(3)
            return SetMember(element) if rng.random() < 0.3 else SetInsert(element)

    else:
        spec = BankAccountType(initial=30)

        def sample():
            from repro.spec.builtin import BalanceRead, Deposit

            return BalanceRead() if rng.random() < 0.3 else Deposit(2)

    system = SystemType({C: spec})
    names = []
    for i in range(6):
        path = [f"t{rng.randrange(3)}"]
        if rng.random() < 0.4:
            path.append(f"u{rng.randrange(2)}")
        path.append(f"a{i}")
        name = TransactionName(tuple(path))
        system.register_access(name, Access(C, sample()))
        names.append(name)
    return system, names


def random_schedule(seed: int, steps: int = 55):
    rng = random.Random(seed)
    system, names = build_universe(rng)
    obj = ReadUpdateLockingObject(C, system)
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


@settings(max_examples=35, deadline=None)
@given(st.integers(0, 10_000))
def test_update_lockholders_form_chain(seed):
    system, obj, trace = random_schedule(seed)
    for _, state in replay_states(obj, trace):
        holders = sorted(state.update_lockholders, key=lambda n: n.depth)
        for shallow, deep in zip(holders, holders[1:]):
            assert shallow.is_ancestor_of(deep)


@settings(max_examples=35, deadline=None)
@given(st.integers(0, 10_000))
def test_conflicting_locks_are_related(seed):
    system, obj, trace = random_schedule(seed)
    for _, state in replay_states(obj, trace):
        for updater in state.update_lockholders:
            for holder in state.update_lockholders | state.read_lockholders:
                assert updater.is_related_to(holder)


@settings(max_examples=35, deadline=None)
@given(st.integers(0, 10_000))
def test_least_holder_state_replays_lock_visible_ops(seed):
    """The M_X analogue of Lemma 13: the tentative state carried by the
    least update lockholder equals the replay of the operations whose
    issuers are lock-visible to it."""
    system, obj, trace = random_schedule(seed)
    spec = system.spec(C)
    for prefix, state in replay_states(obj, trace):
        holders = state.update_lockholders
        least = max(holders, key=lambda n: n.depth)
        if is_local_orphan(prefix, C, least):
            continue
        visible_pairs = [
            (system.access(a.transaction).op, a.value)
            for a in prefix
            if isinstance(a, RequestCommit)
            and not spec.is_read_only(system.access(a.transaction).op)
            and is_lock_visible(prefix, C, a.transaction, least)
        ]
        expected = spec.replay(visible_pairs)
        assert spec.states_equivalent(state.state_of(least), expected), (
            least,
            prefix,
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_responses_unique(seed):
    system, obj, trace = random_schedule(seed)
    seen = set()
    for action in trace:
        if isinstance(action, RequestCommit):
            assert action.transaction not in seen
            seen.add(action.transaction)
