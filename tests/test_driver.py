"""Tests for the simulation driver and scheduling policies."""

import pytest

from repro import (
    Commit,
    EagerInformPolicy,
    MossRWLockingObject,
    ObjectName,
    RandomPolicy,
    RoundRobinPolicy,
    RWSpec,
    SystemType,
    UndoLoggingObject,
    WorkloadConfig,
    generate_workload,
    make_generic_system,
    run_system,
)
from repro.sim.programs import TransactionProgram, par, read, seq, sub, write
from repro.sim.programs import system_type_for
from repro.core.names import ROOT, TransactionName

from conftest import T


def tiny_setup(sequential=True):
    X = ObjectName("x")
    t1 = seq(write(X, 1, "w"), result="one")
    t2 = seq(read(X, "r"), result="two")
    combine = seq if sequential else par
    root = TransactionProgram(
        (sub(t1, "t1"), sub(t2, "t2")), sequential=sequential
    )
    programs = {ROOT: root}
    system_type = system_type_for({X: RWSpec(initial=0)}, programs)
    return system_type, programs


class TestRunSystem:
    def test_sequential_run_to_quiescence(self):
        system_type, programs = tiny_setup(sequential=True)
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(system, RoundRobinPolicy(), system_type)
        assert result.stats.quiescent
        assert result.stats.top_level_committed == 2
        assert Commit(T("t1")) in result.behavior
        assert Commit(T("t2")) in result.behavior

    def test_sequential_read_sees_write(self):
        system_type, programs = tiny_setup(sequential=True)
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(system, EagerInformPolicy(seed=1), system_type)
        from repro import RequestCommit

        reads = [
            a
            for a in result.behavior
            if isinstance(a, RequestCommit) and a.transaction == T("t2", "r")
        ]
        assert reads and reads[0].value == 1

    def test_random_policy_reproducible(self):
        system_type, programs = tiny_setup(sequential=False)
        runs = []
        for _ in range(2):
            system = make_generic_system(system_type, programs, MossRWLockingObject)
            runs.append(
                run_system(system, RandomPolicy(seed=42), system_type).behavior
            )
        assert runs[0] == runs[1]

    def test_step_limit_respected(self):
        system_type, programs = tiny_setup()
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(system, RoundRobinPolicy(), system_type, max_steps=5)
        assert result.stats.steps == 5
        assert not result.stats.quiescent

    def test_undo_logging_driver(self):
        system_type, programs = tiny_setup()
        system = make_generic_system(system_type, programs, UndoLoggingObject)
        result = run_system(system, EagerInformPolicy(seed=0), system_type)
        assert result.stats.quiescent
        assert result.stats.top_level_committed == 2

    def test_blocking_collected(self):
        # two concurrent writers on one object: someone must block under Moss
        X = ObjectName("x")
        root = TransactionProgram(
            (
                sub(seq(write(X, 1, "w")), "t1"),
                sub(seq(write(X, 2, "w")), "t2"),
            ),
            sequential=False,
        )
        programs = {ROOT: root}
        system_type = system_type_for({X: RWSpec(initial=0)}, programs)
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, RandomPolicy(seed=0), system_type, collect_blocking=True
        )
        assert result.stats.quiescent
        assert result.stats.top_level_committed == 2
        assert result.stats.blocked_access_steps >= 0  # metric is collected

    def test_stats_counters(self):
        system_type, programs = tiny_setup()
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(system, RoundRobinPolicy(), system_type)
        stats = result.stats
        assert stats.accesses_answered == 2
        assert stats.committed == stats.action_counts.get("Commit", 0)
        assert "steps=" in stats.summary()


class TestPolicies:
    def test_random_policy_none_on_empty(self):
        assert RandomPolicy(0).choose([], [], []) is None

    def test_round_robin_cycles_kinds(self):
        from repro import Create, RequestCreate

        policy = RoundRobinPolicy()
        enabled = [RequestCreate(T("a")), Create(T("a"))]
        first = policy.choose(enabled, [], [])
        assert first == Create(T("a"))  # Create comes first in the rotation

    def test_eager_inform_prioritises_informs(self):
        from repro import Create, InformCommit

        policy = EagerInformPolicy(seed=0)
        inform = InformCommit(ObjectName("x"), T("a"))
        choice = policy.choose([Create(T("a")), inform], [inform], [])
        assert choice == inform

    def test_eager_inform_draws_from_one_offer(self):
        """Handed the owed reports and informs in the same call as the
        enabled list, the policy draws from them without filtering the
        enabled list; handed none, it draws from the enabled list."""
        from repro import Create, InformCommit

        policy = EagerInformPolicy(seed=0)
        inform = InformCommit(ObjectName("x"), T("a"))
        assert policy.choose([Create(T("a"))], (inform,), ()) == inform
        assert policy.choose([Create(T("a"))], (), ()) == Create(T("a"))
        assert policy.choose([], (), ()) is None


class TestMixedObjectAlgorithms:
    def test_per_object_factories(self):
        # the modular architecture allows different algorithms per object
        X, Y = ObjectName("x"), ObjectName("y")
        root = TransactionProgram(
            (
                sub(seq(write(X, 1, "wx"), read(Y, "ry")), "t1"),
            ),
            sequential=False,
        )
        programs = {ROOT: root}
        system_type = system_type_for(
            {X: RWSpec(initial=0), Y: RWSpec(initial=0)}, programs
        )
        factories = {X: MossRWLockingObject, Y: UndoLoggingObject}
        system = make_generic_system(system_type, programs, factories)
        result = run_system(system, EagerInformPolicy(seed=0), system_type)
        assert result.stats.quiescent
        assert result.stats.top_level_committed == 1
