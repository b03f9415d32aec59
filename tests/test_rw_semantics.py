"""Tests for read/write semantics: final-value operators and RWSpec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.names import ObjectName
from repro.core.rw_semantics import (
    OK,
    ReadOp,
    RWSpec,
    WriteOp,
    clean_final_value,
    clean_last_write,
    final_value,
    is_read_access,
    is_write_access,
    last_write,
    write_sequence,
)

from conftest import BehaviorBuilder, T, rw_system


class TestAccessKinds:
    def test_kinds(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        reader = b.read(t, "r", "x", 0)
        writer = b.write(t, "w", "x", 1)
        assert is_read_access(reader, system)
        assert not is_write_access(reader, system)
        assert is_write_access(writer, system)
        assert not is_read_access(T("t"), system)  # non-access


class TestFinalValue:
    def _behavior(self):
        system = rw_system("x", "y")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.write(t, "w1", "x", 1)
        b.write(t, "w2", "x", 2)
        b.write(t, "wy", "y", 9)
        b.read(t, "r", "x", 2)
        return b.build(), system, t

    def test_write_sequence_orders_and_filters(self):
        behavior, system, t = self._behavior()
        writes = write_sequence(behavior, ObjectName("x"), system)
        assert [w.transaction for w in writes] == [t.child("w1"), t.child("w2")]

    def test_last_write(self):
        behavior, system, t = self._behavior()
        assert last_write(behavior, ObjectName("x"), system) == t.child("w2")
        assert last_write((), ObjectName("x"), system) is None

    def test_final_value(self):
        behavior, system, _ = self._behavior()
        assert final_value(behavior, ObjectName("x"), system) == 2
        assert final_value(behavior, ObjectName("y"), system) == 9
        assert final_value((), ObjectName("x"), system) == 0  # initial

    def test_clean_variants_exclude_orphans(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.write(t1, "w", "x", 5)
        b.write(t2, "w", "x", 7)
        b.abort(t2)
        behavior = b.build()
        assert final_value(behavior, ObjectName("x"), system) == 7
        assert clean_final_value(behavior, ObjectName("x"), system) == 5
        assert clean_last_write(behavior, ObjectName("x"), system) == t1.child("w")

    def test_clean_final_value_initial_when_all_aborted(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.write(t1, "w", "x", 5)
        b.abort(t1)
        assert clean_final_value(b.build(), ObjectName("x"), system) == 0


class TestRWSpec:
    def test_replay_legal(self):
        spec = RWSpec(initial=0)
        pairs = ((WriteOp(3), OK), (ReadOp(), 3), (WriteOp(4), OK), (ReadOp(), 4))
        assert spec.replay(pairs) == 4
        assert spec.is_legal(pairs)

    def test_read_must_return_latest(self):
        spec = RWSpec(initial=0)
        assert not spec.is_legal(((WriteOp(3), OK), (ReadOp(), 0)))
        assert spec.is_legal(((ReadOp(), 0),))

    def test_write_must_return_ok(self):
        spec = RWSpec(initial=0)
        assert not spec.is_legal(((WriteOp(3), "nope"),))

    def test_result_of(self):
        spec = RWSpec(initial=0)
        assert spec.result_of((), ReadOp()) == 0
        assert spec.result_of(((WriteOp(8), OK),), ReadOp()) == 8
        assert spec.result_of((), WriteOp(1)) == OK

    def test_rejects_foreign_ops(self):
        spec = RWSpec(initial=0)
        with pytest.raises(TypeError):
            spec.replay((("bogus", 1),))

    def test_conflicts_matrix(self):
        spec = RWSpec()
        read, write = ReadOp(), WriteOp(1)
        assert not spec.conflicts(read, 0, read, 0)
        assert spec.conflicts(read, 0, write, OK)
        assert spec.conflicts(write, OK, read, 0)
        assert spec.conflicts(write, OK, write, OK)

    @given(st.lists(st.integers(0, 5), max_size=8))
    def test_lemma3_final_value_characterises_state(self, writes):
        """Lemma 3: the replayed state equals final-value of the sequence."""
        spec = RWSpec(initial=0)
        pairs = tuple((WriteOp(v), OK) for v in writes)
        expected = writes[-1] if writes else 0
        assert spec.replay(pairs) == expected

    @given(st.lists(st.integers(0, 3), max_size=6), st.integers(0, 3))
    def test_lemma4_extension(self, writes, extra):
        """Lemma 4: the unique legal read value is the final value."""
        spec = RWSpec(initial=0)
        pairs = tuple((WriteOp(v), OK) for v in writes)
        final = writes[-1] if writes else 0
        assert spec.is_legal(pairs + ((ReadOp(), final),))
        if extra != final:
            assert not spec.is_legal(pairs + ((ReadOp(), extra),))
