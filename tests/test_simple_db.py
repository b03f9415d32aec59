"""Tests for the simple database automaton and simple-behavior checker."""

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
from repro.serial.simple_db import SimpleDatabase, check_simple_behavior

from conftest import BehaviorBuilder, T, rw_system, serial_two_txn_behavior


class TestCheckSimpleBehavior:
    def test_valid_behavior(self):
        behavior, system = serial_two_txn_behavior()
        assert check_simple_behavior(behavior, system) == []

    def test_create_without_request(self):
        system = rw_system("x")
        problems = check_simple_behavior((Create(T("a")),), system)
        assert any("without REQUEST_CREATE" in p for p in problems)

    def test_duplicate_create(self):
        system = rw_system("x")
        problems = check_simple_behavior(
            (RequestCreate(T("a")), Create(T("a")), Create(T("a"))), system
        )
        assert any("duplicate CREATE" in p for p in problems)

    def test_double_completion(self):
        system = rw_system("x")
        problems = check_simple_behavior(
            (
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCommit(T("a"), 1),
                Commit(T("a")),
                Abort(T("a")),
            ),
            system,
        )
        assert any("second completion" in p for p in problems)

    def test_commit_without_request(self):
        system = rw_system("x")
        problems = check_simple_behavior((Commit(T("a")),), system)
        assert any("COMMIT without REQUEST_COMMIT" in p for p in problems)

    def test_report_of_phantom_completion(self):
        system = rw_system("x")
        problems = check_simple_behavior((ReportCommit(T("a"), 1),), system)
        assert any("not committed" in p for p in problems)
        problems = check_simple_behavior((ReportAbort(T("a")),), system)
        assert any("not aborted" in p for p in problems)

    def test_access_response_without_invocation(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        access = b.read(t, "r", "x", 0)  # registers the access properly
        behavior = (RequestCommit(access, 0),)  # response with no CREATE
        problems = check_simple_behavior(behavior, system)
        assert any("never invoked" in p for p in problems)

    def test_double_access_response(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        access = b.read(t, "r", "x", 0, commit=False)
        b.emit(RequestCommit(access, 0))  # second response
        problems = check_simple_behavior(b.build(), system)
        assert any("second response" in p for p in problems)

    def test_abort_of_created_transaction_allowed(self):
        # unlike the serial scheduler, the simple database (and generic
        # controller) may abort transactions that already ran
        system = rw_system("x")
        problems = check_simple_behavior(
            (RequestCreate(T("a")), Create(T("a")), Abort(T("a"))), system
        )
        assert problems == []

    def test_sibling_concurrency_allowed(self):
        system = rw_system("x")
        problems = check_simple_behavior(
            (
                RequestCreate(T("a")),
                RequestCreate(T("b")),
                Create(T("a")),
                Create(T("b")),
            ),
            system,
        )
        assert problems == []


class TestSimpleDatabaseAutomaton:
    def test_replay_valid_schedule(self):
        behavior, system = serial_two_txn_behavior()
        automaton = SimpleDatabase(system)
        execution = replay_schedule(automaton, behavior)
        assert T("t1") in execution.final_state.committed
        assert T("t2") in execution.final_state.committed

    def test_output_preconditions(self):
        system = rw_system("x")
        automaton = SimpleDatabase(system)
        state = automaton.initial_state()
        assert not automaton.enabled(state, Create(T("a")))
        state = automaton.effect(state, RequestCreate(T("a")))
        assert automaton.enabled(state, Create(T("a")))
        assert automaton.enabled(state, Abort(T("a")))
        assert not automaton.enabled(state, Commit(T("a")))

    def test_access_response_arbitrary_value(self):
        # the simple database permits arbitrary access return values
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        access = b.read(t, "r", "x", 0, commit=False)
        automaton = SimpleDatabase(system)
        state = automaton.initial_state()
        for action in (
            RequestCreate(t),
            Create(t),
            RequestCreate(access),
            Create(access),
        ):
            state = automaton.effect(state, action)
        assert automaton.enabled(state, RequestCommit(access, "anything"))
        state = automaton.effect(state, RequestCommit(access, "anything"))
        assert not automaton.enabled(state, RequestCommit(access, "again"))

    def test_signature_split(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        access = b.read(t, "r", "x", 0, commit=False)
        automaton = SimpleDatabase(system)
        # non-access REQUEST_COMMIT is an input; access one is an output
        assert automaton.is_input(RequestCommit(t, 1))
        assert automaton.is_output(RequestCommit(access, 1))
        assert automaton.is_input(RequestCreate(t))
        assert automaton.is_output(Create(t))


class TestGenericImplementsSimple:
    def test_generic_run_satisfies_simple_constraints(self):
        # the paper's architecture: a generic system implements the simple
        # system; check the driver's serial projections pass the checker
        from repro.core.events import serial_projection
        from repro.generic.system import make_generic_system
        from repro.locking.moss import MossRWLockingObject
        from repro.sim.driver import run_system
        from repro.sim.policies import EagerInformPolicy
        from repro.sim.workload import WorkloadConfig, generate_workload

        system_type, programs = generate_workload(
            WorkloadConfig(seed=3, top_level=3, objects=2)
        )
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(system, EagerInformPolicy(seed=3), system_type)
        assert (
            check_simple_behavior(serial_projection(result.behavior), system_type)
            == []
        )
