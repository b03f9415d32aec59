"""Direct tests of Propositions 7 and 18: conflict-preserving reorderings.

If ``perform(xi)`` is a behavior of ``S_X`` and ``eta`` reorders ``xi``
keeping every *conflicting* pair in its original order, then
``perform(eta)`` is a behavior of ``S_X`` too.  Proposition 7 is the
read/write case; Proposition 18 generalises via backward commutativity.
We test both by generating random legal operation sequences, sampling
random conflict-preserving permutations, and replaying.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rw_semantics import ReadOp, RWSpec, WriteOp
from repro.spec.builtin import (
    BankAccountType,
    CounterInc,
    CounterRead,
    CounterType,
    Deposit,
    SetInsert,
    SetMember,
    SetRemove,
    SetType,
    Withdraw,
)


def conflict_preserving_shuffle(spec, pairs, rng):
    """A random reordering keeping conflicting pairs in original order.

    Greedy topological sampling of the precedence DAG induced by the
    conflicting pairs.
    """
    n = len(pairs)
    preds = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if spec.conflicts(pairs[i][0], pairs[i][1], pairs[j][0], pairs[j][1]):
                preds[j].add(i)
    remaining = set(range(n))
    order = []
    while remaining:
        ready = [i for i in remaining if not (preds[i] & remaining)]
        pick = rng.choice(ready)
        order.append(pick)
        remaining.discard(pick)
    return [pairs[i] for i in order]


def spec_and_ops(which, rng):
    if which == 0:
        spec = RWSpec(initial=0)
        ops = [
            WriteOp(rng.randrange(3)) if rng.random() < 0.5 else ReadOp()
            for _ in range(8)
        ]
    elif which == 1:
        spec = CounterType()
        ops = [
            CounterRead() if rng.random() < 0.25 else CounterInc(rng.randrange(1, 4))
            for _ in range(8)
        ]
    elif which == 2:
        spec = SetType()
        ops = []
        for _ in range(8):
            element = rng.randrange(3)
            roll = rng.random()
            if roll < 0.4:
                ops.append(SetInsert(element))
            elif roll < 0.7:
                ops.append(SetRemove(element))
            else:
                ops.append(SetMember(element))
    else:
        spec = BankAccountType(initial=20)
        ops = []
        for _ in range(8):
            if rng.random() < 0.5:
                ops.append(Withdraw(rng.randrange(1, 12)))
            else:
                ops.append(Deposit(rng.randrange(1, 12)))
    if which == 0:
        # RWSpec lacks results_along; compute forced values by replay
        pairs = []
        state = spec.initial
        for op in ops:
            state, value = spec.apply(state, op)
            pairs.append((op, value))
        return spec, pairs
    return spec, spec.results_along(ops)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000), which=st.integers(0, 3))
def test_conflict_preserving_reorderings_stay_legal(seed, which):
    rng = random.Random(seed)
    spec, pairs = spec_and_ops(which, rng)
    assert spec.is_legal(pairs)
    for _ in range(3):
        reordered = conflict_preserving_shuffle(spec, pairs, rng)
        assert spec.is_legal(reordered), (pairs, reordered)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), which=st.integers(1, 3))
def test_reordering_is_equieffective(seed, which):
    # for deterministic, fully observable types, equieffectiveness is
    # state equality — the reordered sequence must reach an equivalent state
    rng = random.Random(seed)
    spec, pairs = spec_and_ops(which, rng)
    original_state = spec.replay(pairs)
    reordered = conflict_preserving_shuffle(spec, pairs, rng)
    assert spec.states_equivalent(spec.replay(reordered), original_state)


def test_violating_reordering_can_break_legality():
    # sanity: swapping a *conflicting* pair is not generally legal
    spec = CounterType()
    pairs = spec.results_along([CounterInc(1), CounterRead()])
    swapped = [pairs[1], pairs[0]]
    assert spec.is_legal(pairs)
    assert not spec.is_legal(swapped)
