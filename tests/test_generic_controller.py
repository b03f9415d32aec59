"""Tests for the generic controller automaton (Section 5.1)."""

from repro.automata.base import replay_schedule
from repro.core.actions import (
    Abort,
    Commit,
    Create,
    InformAbort,
    InformCommit,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.names import ObjectName
from repro.generic.controller import GenericController

from conftest import T, rw_system


def controller():
    return GenericController(rw_system("x", "y"))


def advance(automaton, actions):
    state = automaton.initial_state()
    for action in actions:
        state = automaton.effect(state, action)
    return state


class TestTransitions:
    def test_create_needs_request(self):
        automaton = controller()
        state = automaton.initial_state()
        assert not automaton.enabled(state, Create(T("a")))
        state = automaton.effect(state, RequestCreate(T("a")))
        assert automaton.enabled(state, Create(T("a")))

    def test_concurrent_siblings_allowed(self):
        automaton = controller()
        state = advance(
            automaton,
            [
                RequestCreate(T("a")),
                RequestCreate(T("b")),
                Create(T("a")),
            ],
        )
        # unlike the serial scheduler, sibling b can be created while a runs
        assert automaton.enabled(state, Create(T("b")))

    def test_abort_even_after_create(self):
        automaton = controller()
        state = advance(automaton, [RequestCreate(T("a")), Create(T("a"))])
        assert automaton.enabled(state, Abort(T("a")))

    def test_commit_needs_request_commit(self):
        automaton = controller()
        state = advance(automaton, [RequestCreate(T("a")), Create(T("a"))])
        assert not automaton.enabled(state, Commit(T("a")))
        state = automaton.effect(state, RequestCommit(T("a"), 1))
        assert automaton.enabled(state, Commit(T("a")))

    def test_no_double_completion(self):
        automaton = controller()
        state = advance(
            automaton,
            [
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCommit(T("a"), 1),
                Commit(T("a")),
            ],
        )
        assert not automaton.enabled(state, Abort(T("a")))
        assert not automaton.enabled(state, Commit(T("a")))


class TestInformsAndReports:
    def _committed_state(self, automaton):
        return advance(
            automaton,
            [
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCommit(T("a"), 9),
                Commit(T("a")),
            ],
        )

    def test_informs_after_commit(self):
        automaton = controller()
        state = self._committed_state(automaton)
        assert automaton.enabled(state, InformCommit(ObjectName("x"), T("a")))
        assert automaton.enabled(state, InformCommit(ObjectName("y"), T("a")))
        assert not automaton.enabled(state, InformAbort(ObjectName("x"), T("a")))

    def test_informs_not_repeated(self):
        automaton = controller()
        state = self._committed_state(automaton)
        state = automaton.effect(state, InformCommit(ObjectName("x"), T("a")))
        assert not automaton.enabled(state, InformCommit(ObjectName("x"), T("a")))
        assert automaton.enabled(state, InformCommit(ObjectName("y"), T("a")))

    def test_report_value_matches(self):
        automaton = controller()
        state = self._committed_state(automaton)
        assert automaton.enabled(state, ReportCommit(T("a"), 9))
        assert not automaton.enabled(state, ReportCommit(T("a"), 8))

    def test_commit_without_commit_value_owes_no_report(self):
        # not a schedule of the controller (COMMIT needs a commit
        # request), but ``effect`` accepts it; neither ``enabled`` nor the
        # enumeration may look up the missing value
        automaton = controller()
        state = replay_schedule(
            automaton, [RequestCreate(T("a")), Commit(T("a"))], strict=False
        ).final_state
        assert not automaton.enabled(state, ReportCommit(T("a"), 1))
        outputs = list(automaton.enabled_outputs(state))
        assert not any(isinstance(action, ReportCommit) for action in outputs)

    def test_inform_abort_after_abort(self):
        automaton = controller()
        state = advance(automaton, [RequestCreate(T("a")), Abort(T("a"))])
        assert automaton.enabled(state, InformAbort(ObjectName("x"), T("a")))
        assert automaton.enabled(state, ReportAbort(T("a")))


class TestEnumeration:
    def test_enabled_outputs_sound(self):
        # give transaction `a` an access to x so informing x about it is
        # relevant (the controller only enumerates relevant informs,
        # although `enabled` permits any inform per the model)
        from repro.core.names import Access
        from repro.core.rw_semantics import ReadOp

        system = rw_system("x", "y")
        system.register_access(T("a", "r"), Access(ObjectName("x"), ReadOp()))
        automaton = GenericController(system)
        state = advance(
            automaton,
            [
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCommit(T("a"), 9),
                Commit(T("a")),
                RequestCreate(T("b")),
            ],
        )
        outputs = list(automaton.enabled_outputs(state))
        assert len(outputs) == len(set(outputs))
        for action in outputs:
            assert automaton.enabled(state, action)
        assert Create(T("b")) in outputs
        assert ReportCommit(T("a"), 9) in outputs
        assert InformCommit(ObjectName("x"), T("a")) in outputs
        # object y has no access under `a`: not enumerated, yet permitted
        assert InformCommit(ObjectName("y"), T("a")) not in outputs
        assert automaton.enabled(state, InformCommit(ObjectName("y"), T("a")))

    def test_aborts_enumerated_separately(self):
        automaton = controller()
        state = advance(automaton, [RequestCreate(T("a")), Create(T("a"))])
        outputs = list(automaton.enabled_outputs(state))
        assert Abort(T("a")) not in outputs
        aborts = list(automaton.enabled_aborts(state))
        assert Abort(T("a")) in aborts
        for abort in aborts:
            assert automaton.enabled(state, abort)
