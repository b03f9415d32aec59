"""Tests for the I/O automaton base framework and composition."""

import pytest

from repro.automata.base import IOAutomaton, behavior_of, evolve, replay_schedule
from repro.automata.composition import Composition
from repro.core.actions import Commit, Create, RequestCreate
from repro.core.names import ROOT

from conftest import T


class Toggle(IOAutomaton):
    """A toy automaton: input CREATE(t) sets a flag, output COMMIT(t) clears it."""

    def __init__(self, name: str, transaction):
        self.name = name
        self.transaction = transaction

    def is_input(self, action):
        return isinstance(action, Create) and action.transaction == self.transaction

    def is_output(self, action):
        return isinstance(action, Commit) and action.transaction == self.transaction

    def initial_state(self):
        return False

    def enabled(self, state, action):
        if self.is_input(action):
            return True
        return state  # commit only when flag set

    def effect(self, state, action):
        if isinstance(action, Create):
            return True
        return False

    def enabled_outputs(self, state):
        if state:
            yield Commit(self.transaction)


class KeyedToggle(Toggle):
    """A :class:`Toggle` whose signature is a table, and whose predicates
    are read off it."""

    def signature(self):
        me = (self.transaction,)
        return ((Create, me, False), (Commit, me, True))

    is_input = IOAutomaton.is_input
    is_output = IOAutomaton.is_output


class Listener(Toggle):
    """Same transaction's COMMIT as an *input* (for composition tests)."""

    def is_input(self, action):
        return isinstance(action, Commit) and action.transaction == self.transaction

    def is_output(self, action):
        return False

    def enabled(self, state, action):
        return True

    def effect(self, state, action):
        return True

    def enabled_outputs(self, state):
        return iter(())


class TestBase:
    def test_replay_valid_schedule(self):
        automaton = Toggle("a", T("t"))
        execution = replay_schedule(automaton, [Create(T("t")), Commit(T("t"))])
        assert execution.final_state is False
        assert execution.schedule() == (Create(T("t")), Commit(T("t")))

    def test_replay_rejects_disabled_output(self):
        automaton = Toggle("a", T("t"))
        with pytest.raises(ValueError):
            replay_schedule(automaton, [Commit(T("t"))])

    def test_replay_rejects_foreign_action(self):
        automaton = Toggle("a", T("t"))
        with pytest.raises(ValueError):
            replay_schedule(automaton, [RequestCreate(T("u"))])

    def test_non_strict_replay_skips_enabledness(self):
        automaton = Toggle("a", T("t"))
        execution = replay_schedule(automaton, [Commit(T("t"))], strict=False)
        assert execution.final_state is False

    def test_behavior_of_projects(self):
        automaton = Toggle("a", T("t"))
        schedule = [Create(T("t")), Create(T("u")), Commit(T("t"))]
        assert behavior_of(automaton, schedule) == (
            Create(T("t")),
            Commit(T("t")),
        )

    def test_evolve_replaces_fields_like_replace(self):
        from dataclasses import replace

        from repro.generic.controller import GenericControllerState
        from repro.undo.logging import UndoLogState

        for state in (GenericControllerState(), UndoLogState()):
            field = next(iter(state.__dataclass_fields__))
            changed = evolve(state, **{field: frozenset({T("t")})})
            assert changed == replace(state, **{field: frozenset({T("t")})})
            assert evolve(state) == state
            # a misspelled field is refused, as ``replace`` refuses it,
            # rather than stored outside equality and hashing
            with pytest.raises(TypeError, match="no field"):
                evolve(state, **{field + "_": frozenset()})


class TestComposition:
    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            Composition([Toggle("a", T("t")), Toggle("a", T("u"))])

    def test_shared_action_steps_both(self):
        toggle = Toggle("toggle", T("t"))
        listener = Listener("listener", T("t"))
        system = Composition([toggle, listener])
        state = system.initial_state()
        state = system.effect(state, Create(T("t")))
        assert state["toggle"] is True
        assert state["listener"] is False  # listener ignores CREATE
        state = system.effect(state, Commit(T("t")))
        assert state["toggle"] is False
        assert state["listener"] is True  # listener heard the commit

    def test_output_classification(self):
        toggle = Toggle("toggle", T("t"))
        listener = Listener("listener", T("t"))
        system = Composition([toggle, listener])
        # COMMIT(t) is an output of toggle, so an output of the composite
        assert system.is_output(Commit(T("t")))
        assert not system.is_input(Commit(T("t")))
        # CREATE(t) is only an input
        assert system.is_input(Create(T("t")))

    def test_enabled_outputs_aggregated(self):
        toggle = Toggle("toggle", T("t"))
        system = Composition([toggle])
        state = system.initial_state()
        assert list(system.enabled_outputs(state)) == []
        state = system.effect(state, Create(T("t")))
        assert list(system.enabled_outputs(state)) == [Commit(T("t"))]

    def test_enabled_checks_owner(self):
        toggle = Toggle("toggle", T("t"))
        system = Composition([toggle])
        state = system.initial_state()
        assert not system.enabled(state, Commit(T("t")))
        state = system.effect(state, Create(T("t")))
        assert system.enabled(state, Commit(T("t")))

    def test_duplicate_output_owner_rejected_dynamically(self):
        system = Composition([Toggle("a", T("t")), Toggle("b", T("t"))])
        with pytest.raises(ValueError):
            system.enabled(system.initial_state(), Commit(T("t")))

    def test_duplicate_output_owner_rejected_by_effect(self):
        """Strong compatibility: two components may not share an output,
        and applying such an action must fail instead of stepping both."""
        system = Composition([Toggle("a", T("t")), Toggle("b", T("t"))])
        state = system.effect(system.initial_state(), Create(T("t")))
        assert state == {"a": True, "b": True}
        with pytest.raises(ValueError, match="output of multiple components"):
            system.effect(state, Commit(T("t")))

    def test_unkeyed_components_see_every_action(self):
        toggle, listener = Toggle("toggle", T("t")), Listener("listener", T("t"))
        system = Composition([toggle, listener])
        assert system.participants(Create(T("t"))) == (toggle,)
        assert system.participants(Commit(T("t"))) == (toggle, listener)
        assert system.participants(Commit(T("u"))) == ()

    def test_keyed_components_are_routed_in_component_order(self):
        """A tabled component is found through its table, one without a
        table is always consulted, and the participants keep component
        order."""
        listener = Listener("listener", T("t"))
        keyed = KeyedToggle("keyed", T("t"))
        other = KeyedToggle("other", T("u"))
        system = Composition([other, listener, keyed])
        assert system.participants(Commit(T("t"))) == (listener, keyed)
        assert system.participants(Commit(T("u"))) == (other,)
        assert system.participants(Create(T("t"))) == (keyed,)
        # no table holds REQUEST_CREATE(T0/t), and no predicate does
        assert system.participants(RequestCreate(T("t"))) == ()
        state = system.effect(system.initial_state(), Create(T("t")))
        assert state == {"other": False, "listener": False, "keyed": True}
        assert system.enabled(state, Commit(T("t")))
        assert not system.enabled(state, Commit(T("u")))
        assert system.is_output(Commit(T("t"))) and not system.is_input(Commit(T("t")))
        assert system.is_input(Create(T("t")))
        assert not system.is_input(Create(ROOT.child("v")))

    def test_table_predicates(self):
        keyed = KeyedToggle("keyed", T("t"))
        assert keyed.is_input(Create(T("t"))) and not keyed.is_output(Create(T("t")))
        assert keyed.is_output(Commit(T("t"))) and not keyed.is_input(Commit(T("t")))
        assert not keyed.is_action(Commit(T("u")))
        assert not keyed.is_action(RequestCreate(T("t")))

    def test_two_owners_of_an_entry_raise_at_construction(self):
        """Strong compatibility is checked when the tables merge: two
        components owning one keyed entry, or a keyed and a class-wide
        entry of one class, raise before any action is routed."""
        with pytest.raises(ValueError, match="output of multiple components"):
            Composition([KeyedToggle("a", T("t")), KeyedToggle("b", T("t"))])

        class Committer(Toggle):
            """Outputs every COMMIT."""

            def signature(self):
                return ((Commit, None, True),)

        with pytest.raises(ValueError, match=r"\['a', 'every'\]"):
            Composition([KeyedToggle("a", T("t")), Committer("every", T("u"))])
        # distinct keys share a class without conflict
        Composition([KeyedToggle("a", T("t")), KeyedToggle("b", T("u"))])

    def test_an_automaton_needs_a_table_or_predicates(self):
        class Bare(Toggle):
            is_input = IOAutomaton.is_input

        with pytest.raises(NotImplementedError, match="no signature table"):
            Bare("bare", T("t")).is_input(Create(T("t")))
