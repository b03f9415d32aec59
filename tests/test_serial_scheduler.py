"""Tests for the serial scheduler automaton (Section 2.2.3)."""

from repro.automata.base import replay_schedule
from repro.core.actions import (
    Abort,
    Commit,
    Create,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.serial.scheduler import SerialScheduler

from conftest import T


def sched():
    return SerialScheduler()


def run(actions):
    return replay_schedule(sched(), actions).final_state


class TestCreate:
    def test_create_after_request(self):
        automaton = sched()
        state = automaton.initial_state()
        assert not automaton.enabled(state, Create(T("a")))
        state = automaton.effect(state, RequestCreate(T("a")))
        assert automaton.enabled(state, Create(T("a")))

    def test_no_duplicate_create(self):
        automaton = sched()
        state = run([RequestCreate(T("a")), Create(T("a"))])
        assert not automaton.enabled(state, Create(T("a")))

    def test_siblings_never_overlap(self):
        automaton = sched()
        state = run([RequestCreate(T("a")), RequestCreate(T("b")), Create(T("a"))])
        assert not automaton.enabled(state, Create(T("b")))
        # after a completes, b can run
        state = automaton.effect(state, RequestCommit(T("a"), 1))
        state = automaton.effect(state, Commit(T("a")))
        assert automaton.enabled(state, Create(T("b")))

    def test_non_siblings_may_overlap(self):
        automaton = sched()
        state = run(
            [
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCreate(T("a", "c")),
            ]
        )
        # a is active; its own child may be created (depth-first descent)
        assert automaton.enabled(state, Create(T("a", "c")))


class TestCommitAbort:
    def test_commit_needs_request(self):
        automaton = sched()
        state = run([RequestCreate(T("a")), Create(T("a"))])
        assert not automaton.enabled(state, Commit(T("a")))
        state = automaton.effect(state, RequestCommit(T("a"), 1))
        assert automaton.enabled(state, Commit(T("a")))

    def test_commit_waits_for_children(self):
        automaton = sched()
        state = run(
            [
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCreate(T("a", "c")),
                RequestCommit(T("a"), 1),
            ]
        )
        assert not automaton.enabled(state, Commit(T("a")))
        state = automaton.effect(state, Abort(T("a", "c")))
        assert automaton.enabled(state, Commit(T("a")))

    def test_abort_only_before_create(self):
        automaton = sched()
        state = run([RequestCreate(T("a"))])
        assert automaton.enabled(state, Abort(T("a")))
        state = automaton.effect(state, Create(T("a")))
        assert not automaton.enabled(state, Abort(T("a")))

    def test_no_double_completion(self):
        automaton = sched()
        state = run(
            [
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCommit(T("a"), 1),
                Commit(T("a")),
            ]
        )
        assert not automaton.enabled(state, Commit(T("a")))
        assert not automaton.enabled(state, Abort(T("a")))


class TestReports:
    def test_report_commit_matches_value(self):
        automaton = sched()
        state = run(
            [
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCommit(T("a"), 42),
                Commit(T("a")),
            ]
        )
        assert automaton.enabled(state, ReportCommit(T("a"), 42))
        assert not automaton.enabled(state, ReportCommit(T("a"), 43))

    def test_report_abort(self):
        automaton = sched()
        state = run([RequestCreate(T("a")), Abort(T("a"))])
        assert automaton.enabled(state, ReportAbort(T("a")))
        assert not automaton.enabled(state, ReportCommit(T("a"), 1))

    def test_single_report(self):
        automaton = sched()
        state = run(
            [
                RequestCreate(T("a")),
                Abort(T("a")),
                ReportAbort(T("a")),
            ]
        )
        assert not automaton.enabled(state, ReportAbort(T("a")))


class TestEnabledOutputs:
    def test_enumeration_matches_enabled(self):
        automaton = sched()
        state = run(
            [
                RequestCreate(T("a")),
                RequestCreate(T("b")),
                Create(T("a")),
                RequestCommit(T("a"), 7),
            ]
        )
        outputs = set(automaton.enabled_outputs(state))
        # a can commit; b can be aborted (never created); b cannot be
        # created while a is active
        assert Commit(T("a")) in outputs
        assert Abort(T("b")) in outputs
        assert Create(T("b")) not in outputs
        for action in outputs:
            assert automaton.enabled(state, action)

    def test_inputs_always_enabled(self):
        automaton = sched()
        state = automaton.initial_state()
        assert automaton.enabled(state, RequestCreate(T("zzz")))
        assert automaton.enabled(state, RequestCommit(T("zzz"), None))

    def test_duplicate_request_commit_keeps_first_value(self):
        automaton = sched()
        state = run(
            [
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCommit(T("a"), 1),
                RequestCommit(T("a"), 2),
            ]
        )
        assert state.value_of(T("a")) == 1
