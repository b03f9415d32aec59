"""Unit tests for Moss' read/write locking object automaton M1_X."""

import pytest

from repro.core.actions import Create, InformAbort, InformCommit, RequestCommit
from repro.core.names import ROOT, Access, ObjectName, SystemType
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from repro.locking.moss import (
    MossRWLockingObject,
    least_write_lockholder,
    write_lockholders_form_chain,
)
from repro.spec.builtin import CounterType

from conftest import T


X = ObjectName("x")


def setup(*accesses):
    """accesses: tuples (name, op).  Returns (system_type, automaton)."""
    system = SystemType({X: RWSpec(initial=0)})
    for name, operation in accesses:
        system.register_access(name, Access(X, operation))
    return system, MossRWLockingObject(X, system)


class TestBasics:
    def test_initial_state_root_holds_lock(self):
        _, obj = setup()
        state = obj.initial_state()
        assert state.write_lockholders == {ROOT}
        assert state.value(ROOT) == 0
        assert least_write_lockholder(state) == ROOT

    def test_requires_rw_spec(self):
        system = SystemType({X: CounterType()})
        with pytest.raises(TypeError):
            MossRWLockingObject(X, system)

    def test_read_before_create_not_enabled(self):
        reader = T("t", "r")
        _, obj = setup((reader, ReadOp()))
        state = obj.initial_state()
        assert not obj.enabled(state, RequestCommit(reader, 0))


class TestLockAcquisition:
    def test_read_returns_least_writer_value(self):
        reader = T("t", "r")
        _, obj = setup((reader, ReadOp()))
        state = obj.effect(obj.initial_state(), Create(reader))
        assert obj.enabled(state, RequestCommit(reader, 0))
        state = obj.effect(state, RequestCommit(reader, 0))
        assert reader in state.read_lockholders

    def test_write_stores_value_and_takes_lock(self):
        writer = T("t", "w")
        _, obj = setup((writer, WriteOp(7)))
        state = obj.effect(obj.initial_state(), Create(writer))
        assert obj.enabled(state, RequestCommit(writer, OK))
        state = obj.effect(state, RequestCommit(writer, OK))
        assert writer in state.write_lockholders
        assert state.value(writer) == 7
        assert least_write_lockholder(state) == writer

    def test_conflicting_write_blocked_by_read_lock(self):
        reader, writer = T("t1", "r"), T("t2", "w")
        _, obj = setup((reader, ReadOp()), (writer, WriteOp(1)))
        state = obj.initial_state()
        state = obj.effect(state, Create(reader))
        state = obj.effect(state, RequestCommit(reader, 0))
        state = obj.effect(state, Create(writer))
        # t1 holds a read lock and is no ancestor of t2
        assert not obj.enabled(state, RequestCommit(writer, OK))
        assert writer in set(obj.blocked_accesses(state))

    def test_concurrent_readers_allowed(self):
        r1, r2 = T("t1", "r"), T("t2", "r")
        _, obj = setup((r1, ReadOp()), (r2, ReadOp()))
        state = obj.initial_state()
        state = obj.effect(state, Create(r1))
        state = obj.effect(state, RequestCommit(r1, 0))
        state = obj.effect(state, Create(r2))
        assert obj.enabled(state, RequestCommit(r2, 0))

    def test_write_blocked_by_uncommitted_writer(self):
        w1, w2 = T("t1", "w"), T("t2", "w")
        _, obj = setup((w1, WriteOp(1)), (w2, WriteOp(2)))
        state = obj.initial_state()
        state = obj.effect(state, Create(w1))
        state = obj.effect(state, RequestCommit(w1, OK))
        state = obj.effect(state, Create(w2))
        assert not obj.enabled(state, RequestCommit(w2, OK))

    def test_descendant_sees_ancestors_uncommitted_write(self):
        # nested: t writes, then t's subtransaction reads t's value --
        # allowed because the write lockholder is an ancestor
        writer, reader = T("t", "w"), T("t", "u", "r")
        _, obj = setup((writer, WriteOp(9)), (reader, ReadOp()))
        state = obj.initial_state()
        state = obj.effect(state, Create(writer))
        state = obj.effect(state, RequestCommit(writer, OK))
        # lock moves up to t when the access commits
        state = obj.effect(state, InformCommit(X, writer))
        state = obj.effect(state, Create(reader))
        assert obj.enabled(state, RequestCommit(reader, 9))
        assert not obj.enabled(state, RequestCommit(reader, 0))


class TestInformCommit:
    def test_lock_inheritance(self):
        writer = T("t", "w")
        _, obj = setup((writer, WriteOp(5)))
        state = obj.initial_state()
        state = obj.effect(state, Create(writer))
        state = obj.effect(state, RequestCommit(writer, OK))
        state = obj.effect(state, InformCommit(X, writer))
        assert writer not in state.write_lockholders
        assert T("t") in state.write_lockholders
        assert state.value(T("t")) == 5
        # and on upwards
        state = obj.effect(state, InformCommit(X, T("t")))
        assert state.write_lockholders == {ROOT}
        assert state.value(ROOT) == 5

    def test_read_lock_inheritance(self):
        reader = T("t", "r")
        _, obj = setup((reader, ReadOp()))
        state = obj.initial_state()
        state = obj.effect(state, Create(reader))
        state = obj.effect(state, RequestCommit(reader, 0))
        state = obj.effect(state, InformCommit(X, reader))
        assert reader not in state.read_lockholders
        assert T("t") in state.read_lockholders

    def test_inform_commit_for_non_holder_is_noop(self):
        _, obj = setup()
        state = obj.initial_state()
        after = obj.effect(state, InformCommit(X, T("stranger")))
        assert after == state


class TestInformAbort:
    def test_discards_descendant_locks_and_restores_value(self):
        writer = T("t", "w")
        _, obj = setup((writer, WriteOp(5)))
        state = obj.initial_state()
        state = obj.effect(state, Create(writer))
        state = obj.effect(state, RequestCommit(writer, OK))
        assert least_write_lockholder(state) == writer
        state = obj.effect(state, InformAbort(X, T("t")))
        # the write lock vanished; ROOT's original value is exposed again
        assert state.write_lockholders == {ROOT}
        assert state.value(ROOT) == 0
        assert least_write_lockholder(state) == ROOT

    def test_abort_of_unrelated_transaction_keeps_locks(self):
        writer = T("t", "w")
        _, obj = setup((writer, WriteOp(5)))
        state = obj.initial_state()
        state = obj.effect(state, Create(writer))
        state = obj.effect(state, RequestCommit(writer, OK))
        state = obj.effect(state, InformAbort(X, T("other")))
        assert writer in state.write_lockholders


class TestInvariants:
    def test_lemma9_chain_invariant_maintained(self):
        # write lockholders always form an ancestor chain
        w1, w2 = T("t", "w1"), T("t", "u", "w2")
        _, obj = setup((w1, WriteOp(1)), (w2, WriteOp(2)))
        state = obj.initial_state()
        assert write_lockholders_form_chain(state)
        state = obj.effect(state, Create(w1))
        state = obj.effect(state, RequestCommit(w1, OK))
        assert write_lockholders_form_chain(state)
        state = obj.effect(state, InformCommit(X, w1))
        state = obj.effect(state, InformCommit(X, T("t")))
        assert write_lockholders_form_chain(state)
        state = obj.effect(state, Create(w2))
        state = obj.effect(state, RequestCommit(w2, OK))
        assert write_lockholders_form_chain(state)

    def test_no_duplicate_response(self):
        reader = T("t", "r")
        _, obj = setup((reader, ReadOp()))
        state = obj.initial_state()
        state = obj.effect(state, Create(reader))
        state = obj.effect(state, RequestCommit(reader, 0))
        assert not obj.enabled(state, RequestCommit(reader, 0))

    def test_enabled_outputs_sound_and_valued(self):
        reader, writer = T("t1", "r"), T("t2", "w")
        _, obj = setup((reader, ReadOp()), (writer, WriteOp(3)))
        state = obj.initial_state()
        state = obj.effect(state, Create(reader))
        state = obj.effect(state, Create(writer))
        outputs = list(obj.enabled_outputs(state))
        for action in outputs:
            assert obj.enabled(state, action)
        assert RequestCommit(reader, 0) in outputs
