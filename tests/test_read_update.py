"""Tests for read/update locking (the general Moss automaton M_X)."""

import pytest

from repro.core.actions import Create, InformAbort, InformCommit, RequestCommit
from repro.core.correctness import certify
from repro.core.names import ROOT, Access, ObjectName, SystemType
from repro.core.rw_semantics import RWSpec
from repro.locking.read_update import ReadUpdateLockingObject, ReadUpdateState
from repro.spec.builtin import (
    OK,
    BalanceRead,
    BankAccountType,
    CounterInc,
    CounterRead,
    CounterType,
    Withdraw,
)

from conftest import T

C = ObjectName("c")


def setup(spec, *accesses):
    system = SystemType({C: spec})
    for name, operation in accesses:
        system.register_access(name, Access(C, operation))
    return system, ReadUpdateLockingObject(C, system)


class TestBasics:
    def test_initial_root_holds_state(self):
        _, obj = setup(CounterType(initial=5))
        state = obj.initial_state()
        assert state.update_lockholders == {ROOT}
        assert state.state_of(ROOT) == 5

    def test_requires_datatype(self):
        system = SystemType({C: RWSpec()})
        with pytest.raises(TypeError):
            ReadUpdateLockingObject(C, system)


class TestLocking:
    def test_update_applies_operation(self):
        inc = T("t", "i")
        _, obj = setup(CounterType(initial=5), (inc, CounterInc(3)))
        state = obj.effect(obj.initial_state(), Create(inc))
        assert obj.enabled(state, RequestCommit(inc, OK))
        state = obj.effect(state, RequestCommit(inc, OK))
        assert inc in state.update_lockholders
        assert state.state_of(inc) == 8
        # root's pristine state survives underneath
        assert state.state_of(ROOT) == 5

    def test_read_shares(self):
        r1, r2 = T("t1", "r"), T("t2", "r")
        _, obj = setup(
            CounterType(initial=5), (r1, CounterRead()), (r2, CounterRead())
        )
        state = obj.initial_state()
        state = obj.effect(state, Create(r1))
        state = obj.effect(state, RequestCommit(r1, 5))
        state = obj.effect(state, Create(r2))
        assert obj.enabled(state, RequestCommit(r2, 5))

    def test_updates_serialise_even_when_commuting(self):
        # the conservative point: commuting increments still block
        i1, i2 = T("t1", "i"), T("t2", "i")
        _, obj = setup(CounterType(), (i1, CounterInc(1)), (i2, CounterInc(1)))
        state = obj.initial_state()
        state = obj.effect(state, Create(i1))
        state = obj.effect(state, RequestCommit(i1, OK))
        state = obj.effect(state, Create(i2))
        assert not obj.enabled(state, RequestCommit(i2, OK))
        assert i2 in set(obj.blocked_accesses(state))

    def test_read_blocked_by_update(self):
        inc, read = T("t1", "i"), T("t2", "r")
        _, obj = setup(CounterType(), (inc, CounterInc(1)), (read, CounterRead()))
        state = obj.initial_state()
        state = obj.effect(state, Create(inc))
        state = obj.effect(state, RequestCommit(inc, OK))
        state = obj.effect(state, Create(read))
        assert not obj.enabled(state, RequestCommit(read, 1))

    def test_descendant_sees_tentative_state(self):
        inc, read = T("t", "i"), T("t", "u", "r")
        _, obj = setup(
            CounterType(initial=5), (inc, CounterInc(3)), (read, CounterRead())
        )
        state = obj.initial_state()
        state = obj.effect(state, Create(inc))
        state = obj.effect(state, RequestCommit(inc, OK))
        state = obj.effect(state, InformCommit(C, inc))  # lock moves to t
        state = obj.effect(state, Create(read))
        assert obj.enabled(state, RequestCommit(read, 8))
        assert not obj.enabled(state, RequestCommit(read, 5))


class TestInheritanceAndUndo:
    def test_inform_commit_moves_state_up(self):
        inc = T("t", "i")
        _, obj = setup(CounterType(initial=0), (inc, CounterInc(7)))
        state = obj.initial_state()
        state = obj.effect(state, Create(inc))
        state = obj.effect(state, RequestCommit(inc, OK))
        state = obj.effect(state, InformCommit(C, inc))
        state = obj.effect(state, InformCommit(C, T("t")))
        assert state.update_lockholders == {ROOT}
        assert state.state_of(ROOT) == 7

    def test_inform_abort_restores(self):
        inc, read = T("t1", "i"), T("t2", "r")
        _, obj = setup(
            CounterType(initial=5), (inc, CounterInc(3)), (read, CounterRead())
        )
        state = obj.initial_state()
        state = obj.effect(state, Create(inc))
        state = obj.effect(state, RequestCommit(inc, OK))
        state = obj.effect(state, InformAbort(C, T("t1")))
        assert state.update_lockholders == {ROOT}
        state = obj.effect(state, Create(read))
        assert obj.enabled(state, RequestCommit(read, 5))


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(4))
    def test_runs_are_serially_correct(self, seed):
        from repro.generic.system import make_generic_system
        from repro.sim.driver import run_system
        from repro.sim.policies import EagerInformPolicy
        from repro.sim.workload import CounterKind, WorkloadConfig, generate_workload

        system_type, programs = generate_workload(
            WorkloadConfig(seed=seed, top_level=4, objects=2, kind=CounterKind())
        )
        system = make_generic_system(system_type, programs, ReadUpdateLockingObject)
        result = run_system(
            system, EagerInformPolicy(seed=seed), system_type,
            max_steps=6000, resolve_deadlocks=True,
        )
        certificate = certify(result.behavior, system_type)
        assert certificate.certified, certificate.explain()
        assert not certificate.witness_problems

    def test_bank_account_withdrawals_serialise(self):
        w1, w2 = T("t1", "w"), T("t2", "w")
        _, obj = setup(
            BankAccountType(initial=100), (w1, Withdraw(10)), (w2, Withdraw(10))
        )
        state = obj.initial_state()
        state = obj.effect(state, Create(w1))
        state = obj.effect(state, RequestCommit(w1, OK))
        state = obj.effect(state, Create(w2))
        # undo logging would admit this (withdrawals commute); M_X blocks it
        assert not obj.enabled(state, RequestCommit(w2, OK))


class TestReadOnlyFlags:
    def test_flags_are_sound(self):
        """Every op flagged read-only must leave every sampled state fixed."""
        from repro.spec.builtin import (
            Deposit,
            Dequeue,
            Enqueue,
            QueueType,
            RegRead,
            RegWrite,
            RegisterType,
            SetInsert,
            SetMember,
            SetType,
        )
        from repro.spec.commutativity import exhaustive_prefixes

        cases = [
            (RegisterType(initial=0), [RegRead(), RegWrite(1)]),
            (CounterType(), [CounterRead(), CounterInc(2)]),
            (SetType(), [SetMember(1), SetInsert(1)]),
            (BankAccountType(initial=5), [BalanceRead(), Deposit(2), Withdraw(3)]),
            (QueueType(), [Enqueue(1), Dequeue()]),
        ]
        for datatype, operations in cases:
            for prefix in exhaustive_prefixes(datatype, operations, 2):
                state = datatype.replay(prefix)
                for op in operations:
                    if datatype.is_read_only(op):
                        new_state, _ = datatype.apply(state, op)
                        assert datatype.states_equivalent(state, new_state)
