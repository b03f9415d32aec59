"""Tests for the serial object automata S_X (read/write and typed)."""

import pytest

from repro.automata.base import replay_schedule
from repro.core.actions import Create, RequestCommit
from repro.core.names import Access, ObjectName, SystemType
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from repro.serial.rw_object import SerialRWObject
from repro.serial.typed_object import SerialTypedObject
from repro.spec.builtin import CounterInc, CounterRead, CounterType

from conftest import T


def rw_setup():
    system = SystemType({ObjectName("x"): RWSpec(initial=0)})
    reader = T("t", "r")
    writer = T("t", "w")
    system.register_access(reader, Access(ObjectName("x"), ReadOp()))
    system.register_access(writer, Access(ObjectName("x"), WriteOp(5)))
    return system, SerialRWObject(ObjectName("x"), system), reader, writer


class TestSerialRWObject:
    def test_initial_state(self):
        _, obj, *_ = rw_setup()
        state = obj.initial_state()
        assert state.active is None
        assert state.data == 0

    def test_read_returns_data(self):
        _, obj, reader, _ = rw_setup()
        state = obj.effect(obj.initial_state(), Create(reader))
        assert obj.enabled(state, RequestCommit(reader, 0))
        assert not obj.enabled(state, RequestCommit(reader, 1))
        assert list(obj.enabled_outputs(state)) == [RequestCommit(reader, 0)]

    def test_write_stores_and_returns_ok(self):
        _, obj, reader, writer = rw_setup()
        state = obj.effect(obj.initial_state(), Create(writer))
        assert obj.enabled(state, RequestCommit(writer, OK))
        assert not obj.enabled(state, RequestCommit(writer, 5))
        state = obj.effect(state, RequestCommit(writer, OK))
        assert state.data == 5
        assert state.active is None

    def test_request_commit_requires_active(self):
        _, obj, reader, _ = rw_setup()
        state = obj.initial_state()
        assert not obj.enabled(state, RequestCommit(reader, 0))

    def test_signature(self):
        system, obj, reader, _ = rw_setup()
        assert obj.is_input(Create(reader))
        assert obj.is_output(RequestCommit(reader, 0))
        assert not obj.is_input(Create(T("t")))  # non-access
        # an access to another object is not in the signature
        other = T("t", "other")
        system2 = SystemType({ObjectName("y"): RWSpec()})

    def test_replay_full_behavior(self):
        _, obj, reader, writer = rw_setup()
        execution = replay_schedule(
            obj,
            [
                Create(writer),
                RequestCommit(writer, OK),
                Create(reader),
                RequestCommit(reader, 5),
            ],
        )
        assert execution.final_state.data == 5

    def test_lemma3_state_is_final_value(self):
        # the state's data component always equals final-value of the
        # behavior so far (Lemma 3)
        system = SystemType({ObjectName("x"): RWSpec(initial=0)})
        names = []
        for i in range(4):
            name = T("t", f"w{i}")
            system.register_access(name, Access(ObjectName("x"), WriteOp(i * 10)))
            names.append(name)
        obj = SerialRWObject(ObjectName("x"), system)
        state = obj.initial_state()
        for name in names:
            state = obj.effect(state, Create(name))
            state = obj.effect(state, RequestCommit(name, OK))
        assert state.data == 30


class TestSerialTypedObject:
    def _setup(self):
        system = SystemType({ObjectName("c"): CounterType(initial=10)})
        inc = T("t", "inc")
        read = T("t", "read")
        system.register_access(inc, Access(ObjectName("c"), CounterInc(5)))
        system.register_access(read, Access(ObjectName("c"), CounterRead()))
        return system, SerialTypedObject(ObjectName("c"), system), inc, read

    def test_initial_state(self):
        _, obj, *_ = self._setup()
        assert obj.initial_state().data == 10

    def test_update_then_read(self):
        _, obj, inc, read = self._setup()
        state = obj.effect(obj.initial_state(), Create(inc))
        assert list(obj.enabled_outputs(state)) == [RequestCommit(inc, "OK")]
        state = obj.effect(state, RequestCommit(inc, "OK"))
        assert state.data == 15
        state = obj.effect(state, Create(read))
        assert obj.enabled(state, RequestCommit(read, 15))
        assert not obj.enabled(state, RequestCommit(read, 10))

    def test_rejects_non_datatype_spec(self):
        system = SystemType({ObjectName("x"): RWSpec()})
        with pytest.raises(TypeError):
            SerialTypedObject(ObjectName("x"), system)

    def test_no_output_when_idle(self):
        _, obj, *_ = self._setup()
        assert list(obj.enabled_outputs(obj.initial_state())) == []
