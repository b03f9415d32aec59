"""Tests for MapType — a user-style data type built on the framework."""

import pytest

from repro.core.actions import Create, InformCommit, RequestCommit
from repro.core.names import Access, ObjectName, SystemType
from repro.spec.builtin import MISSING, OK, MapGet, MapPut, MapRemove, MapType
from repro.spec.commutativity import exhaustive_prefixes
from repro.spec.forward import forward_commutes
from repro.undo.logging import UndoLoggingObject

from conftest import T


class TestSemantics:
    def test_apply(self):
        m = MapType()
        state, value = m.apply(m.initial, MapPut("a", 1))
        assert value == OK
        state, value = m.apply(state, MapGet("a"))
        assert value == 1
        state, value = m.apply(state, MapRemove("a"))
        assert value == OK
        _, value = m.apply(state, MapGet("a"))
        assert value == MISSING

    def test_initial_contents(self):
        m = MapType(initial={"a": 1})
        assert m.result_of((), MapGet("a")) == 1

    def test_states_are_canonical(self):
        m = MapType()
        s1 = m.replay([(MapPut("a", 1), OK), (MapPut("b", 2), OK)])
        s2 = m.replay([(MapPut("b", 2), OK), (MapPut("a", 1), OK)])
        assert s1 == s2

    def test_foreign_op_rejected(self):
        with pytest.raises(TypeError):
            MapType().apply((), "bogus")

    def test_read_only_flag(self):
        m = MapType()
        assert m.is_read_only(MapGet("a"))
        assert not m.is_read_only(MapPut("a", 1))


class TestCommutativityTable:
    def test_table_matches_definition(self):
        """The same definitional verification every built-in type gets."""
        from test_commutativity import check_type

        check_type(
            MapType(),
            [MapPut("a", 1), MapPut("a", 2), MapPut("b", 1), MapGet("a"),
             MapRemove("a")],
            max_length=2,
        )

    def test_distinct_keys_commute(self):
        m = MapType()
        assert m.commutes_backward(MapPut("a", 1), OK, MapPut("b", 9), OK)
        assert m.commutes_backward(MapGet("a"), MISSING, MapRemove("b"), OK)

    def test_same_key_conflicts(self):
        m = MapType()
        assert not m.commutes_backward(MapPut("a", 1), OK, MapPut("a", 2), OK)
        assert m.commutes_backward(MapPut("a", 1), OK, MapPut("a", 1), OK)
        assert not m.commutes_backward(MapGet("a"), 1, MapPut("a", 1), OK)
        assert not m.commutes_backward(MapRemove("a"), OK, MapPut("a", 1), OK)
        assert m.commutes_backward(MapRemove("a"), OK, MapRemove("a"), OK)


class TestUnderUndoLogging:
    def test_distinct_key_puts_run_concurrently(self):
        obj = ObjectName("m")
        system = SystemType({obj: MapType()})
        p1, p2 = T("t1", "p"), T("t2", "p")
        system.register_access(p1, Access(obj, MapPut("a", 1)))
        system.register_access(p2, Access(obj, MapPut("b", 2)))
        undo = UndoLoggingObject(obj, system)
        state = undo.initial_state()
        state = undo.effect(state, Create(p1))
        state = undo.effect(state, RequestCommit(p1, OK))
        state = undo.effect(state, Create(p2))
        assert undo.enabled(state, RequestCommit(p2, OK))

    def test_same_key_get_blocks_on_pending_put(self):
        obj = ObjectName("m")
        system = SystemType({obj: MapType()})
        put, get = T("t1", "p"), T("t2", "g")
        system.register_access(put, Access(obj, MapPut("a", 1)))
        system.register_access(get, Access(obj, MapGet("a")))
        undo = UndoLoggingObject(obj, system)
        state = undo.initial_state()
        state = undo.effect(state, Create(put))
        state = undo.effect(state, RequestCommit(put, OK))
        state = undo.effect(state, Create(get))
        assert not undo.enabled(state, RequestCommit(get, 1))
        state = undo.effect(state, InformCommit(obj, put))
        state = undo.effect(state, InformCommit(obj, T("t1")))
        assert undo.enabled(state, RequestCommit(get, 1))

    def test_end_to_end_certified(self):
        from repro.core.correctness import certify
        from repro.core.names import ROOT
        from repro.generic.system import make_generic_system
        from repro.sim.driver import run_system
        from repro.sim.policies import EagerInformPolicy
        from repro.sim.programs import TransactionProgram, op, seq, sub, system_type_for

        obj = ObjectName("m")
        programs = {
            ROOT: TransactionProgram(
                (
                    sub(seq(op(obj, MapPut("a", 1), "pa")), "t1"),
                    sub(seq(op(obj, MapPut("b", 2), "pb")), "t2"),
                    sub(seq(op(obj, MapGet("c"), "gc")), "t3"),
                ),
                sequential=False,
            )
        }
        system_type = system_type_for({obj: MapType()}, programs)
        system = make_generic_system(system_type, programs, UndoLoggingObject)
        result = run_system(
            system, EagerInformPolicy(seed=1), system_type, resolve_deadlocks=True
        )
        certificate = certify(result.behavior, system_type)
        assert certificate.certified
        assert result.stats.top_level_committed == 3
