"""Unit tests for the undo logging object automaton U_X (Section 6.2)."""

import pytest

from repro.core.actions import Create, InformAbort, InformCommit, RequestCommit
from repro.core.names import Access, ObjectName, SystemType
from repro.core.operations import Operation
from repro.spec.builtin import (
    OK,
    BalanceRead,
    BankAccountType,
    CounterInc,
    CounterRead,
    CounterType,
    Deposit,
    Withdraw,
)
from repro.undo.logging import UndoLoggingObject

from conftest import T


C = ObjectName("c")


def setup(spec, *accesses):
    system = SystemType({C: spec})
    for name, operation in accesses:
        system.register_access(name, Access(C, operation))
    return system, UndoLoggingObject(C, system)


class TestBasics:
    def test_initial_state_empty(self):
        _, obj = setup(CounterType())
        state = obj.initial_state()
        assert state.operations == ()
        assert state.created == frozenset()

    def test_rejects_spec_without_protocol(self):
        class Bogus:
            pass

        system = SystemType({C: Bogus()})
        with pytest.raises(TypeError):
            UndoLoggingObject(C, system)

    def test_forced_value_from_log(self):
        inc, read = T("t1", "i"), T("t2", "r")
        _, obj = setup(CounterType(initial=10), (inc, CounterInc(5)), (read, CounterRead()))
        state = obj.initial_state()
        state = obj.effect(state, Create(inc))
        state = obj.effect(state, RequestCommit(inc, OK))
        state = obj.effect(state, Create(read))
        # read conflicts with the uncommitted increment: blocked
        assert not obj.enabled(state, RequestCommit(read, 15))
        # once t1's chain is committed, the read proceeds and sees 15
        state = obj.effect(state, InformCommit(C, inc))
        state = obj.effect(state, InformCommit(C, T("t1")))
        assert obj.enabled(state, RequestCommit(read, 15))
        assert not obj.enabled(state, RequestCommit(read, 10))


class TestCommutativityPrecondition:
    def test_commuting_ops_proceed_concurrently(self):
        i1, i2 = T("t1", "i"), T("t2", "i")
        _, obj = setup(CounterType(), (i1, CounterInc(1)), (i2, CounterInc(2)))
        state = obj.initial_state()
        state = obj.effect(state, Create(i1))
        state = obj.effect(state, RequestCommit(i1, OK))
        state = obj.effect(state, Create(i2))
        # increments commute: no blocking despite t1 being uncommitted
        assert obj.enabled(state, RequestCommit(i2, OK))

    def test_conflicting_op_blocked_until_commit(self):
        inc, read = T("t1", "i"), T("t2", "r")
        _, obj = setup(CounterType(), (inc, CounterInc(1)), (read, CounterRead()))
        state = obj.initial_state()
        state = obj.effect(state, Create(inc))
        state = obj.effect(state, RequestCommit(inc, OK))
        state = obj.effect(state, Create(read))
        assert read in set(obj.blocked_accesses(state))
        state = obj.effect(state, InformCommit(C, inc))
        state = obj.effect(state, InformCommit(C, T("t1")))
        assert read not in set(obj.blocked_accesses(state))

    def test_sibling_subtransactions_of_common_ancestor(self):
        # accesses under a common uncommitted ancestor: only the part of the
        # chain outside ancestors(T) matters
        i1, i2 = T("t", "u1", "i"), T("t", "u2", "i")
        read = T("t", "u2", "r")
        _, obj = setup(
            CounterType(),
            (i1, CounterInc(1)),
            (read, CounterRead()),
        )
        state = obj.initial_state()
        state = obj.effect(state, Create(i1))
        state = obj.effect(state, RequestCommit(i1, OK))
        # u1 committed (but t has not): u1's op visible to u2's read
        state = obj.effect(state, InformCommit(C, i1))
        state = obj.effect(state, InformCommit(C, T("t", "u1")))
        state = obj.effect(state, Create(read))
        assert obj.enabled(state, RequestCommit(read, 1))

    def test_successful_withdrawals_commute(self):
        # Weihl's example: two concurrent successful withdrawals
        w1, w2 = T("t1", "w"), T("t2", "w")
        _, obj = setup(
            BankAccountType(initial=100), (w1, Withdraw(30)), (w2, Withdraw(30))
        )
        state = obj.initial_state()
        state = obj.effect(state, Create(w1))
        state = obj.effect(state, RequestCommit(w1, OK))
        state = obj.effect(state, Create(w2))
        assert obj.enabled(state, RequestCommit(w2, OK))

    def test_deposit_conflicts_with_pending_withdrawal(self):
        w, d = T("t1", "w"), T("t2", "d")
        _, obj = setup(
            BankAccountType(initial=100), (w, Withdraw(30)), (d, Deposit(10))
        )
        state = obj.initial_state()
        state = obj.effect(state, Create(w))
        state = obj.effect(state, RequestCommit(w, OK))
        state = obj.effect(state, Create(d))
        assert not obj.enabled(state, RequestCommit(d, OK))


class TestUndo:
    def test_inform_abort_excises_descendants(self):
        i1, i2 = T("t1", "i"), T("t2", "i")
        read = T("t3", "r")
        _, obj = setup(
            CounterType(),
            (i1, CounterInc(1)),
            (i2, CounterInc(2)),
            (read, CounterRead()),
        )
        state = obj.initial_state()
        for access in (i1, i2):
            state = obj.effect(state, Create(access))
            state = obj.effect(state, RequestCommit(access, OK))
        assert [op.transaction for op in state.operations] == [i1, i2]
        state = obj.effect(state, InformAbort(C, T("t1")))
        assert [op.transaction for op in state.operations] == [i2]
        # commit t2's chain; the read sees only t2's increment
        state = obj.effect(state, InformCommit(C, i2))
        state = obj.effect(state, InformCommit(C, T("t2")))
        state = obj.effect(state, Create(read))
        assert obj.enabled(state, RequestCommit(read, 2))

    def test_abort_then_fresh_value(self):
        w = T("t1", "w")
        read = T("t2", "r")
        _, obj = setup(
            BankAccountType(initial=50), (w, Withdraw(20)), (read, BalanceRead())
        )
        state = obj.initial_state()
        state = obj.effect(state, Create(w))
        state = obj.effect(state, RequestCommit(w, OK))
        state = obj.effect(state, InformAbort(C, T("t1")))
        state = obj.effect(state, Create(read))
        assert obj.enabled(state, RequestCommit(read, 50))

    def test_lemma20_log_contents(self):
        # the log is operations(beta) minus aborted descendants
        i1, i2 = T("t1", "i"), T("t2", "i")
        _, obj = setup(CounterType(), (i1, CounterInc(1)), (i2, CounterInc(2)))
        state = obj.initial_state()
        for access in (i1, i2):
            state = obj.effect(state, Create(access))
            state = obj.effect(state, RequestCommit(access, OK))
        state = obj.effect(state, InformAbort(C, T("t2")))
        assert state.operations == (Operation(i1, OK),)


class TestBookkeeping:
    def test_no_duplicate_response(self):
        i1 = T("t1", "i")
        _, obj = setup(CounterType(), (i1, CounterInc(1)))
        state = obj.initial_state()
        state = obj.effect(state, Create(i1))
        state = obj.effect(state, RequestCommit(i1, OK))
        assert not obj.enabled(state, RequestCommit(i1, OK))

    def test_enabled_outputs_sound(self):
        i1, read = T("t1", "i"), T("t2", "r")
        _, obj = setup(CounterType(), (i1, CounterInc(1)), (read, CounterRead()))
        state = obj.initial_state()
        state = obj.effect(state, Create(i1))
        state = obj.effect(state, Create(read))
        outputs = list(obj.enabled_outputs(state))
        for action in outputs:
            assert obj.enabled(state, action)
        # both are enabled initially (empty log)
        assert RequestCommit(i1, OK) in outputs
        assert RequestCommit(read, 0) in outputs

    def test_inform_commit_recorded(self):
        _, obj = setup(CounterType())
        state = obj.effect(obj.initial_state(), InformCommit(C, T("t")))
        assert T("t") in state.committed
