"""Tests for driver-level deadlock detection and victim aborts."""

from repro.core.actions import Abort, Create, RequestCommit
from repro.core.correctness import certify
from repro.core.names import ROOT, ObjectName
from repro.core.rw_semantics import RWSpec
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy, RoundRobinPolicy, SchedulingPolicy
from repro.sim.programs import (
    TransactionProgram,
    read,
    seq,
    sub,
    system_type_for,
    write,
)


from conftest import T

X = ObjectName("x")
Y = ObjectName("y")


class ReadsFirstPolicy(SchedulingPolicy):
    """Deterministic policy that admits every read before any write.

    Drives the read-lock-coupling scenario into a genuine deadlock:
    both clients acquire read locks, then neither write can proceed.
    """

    def _priority(self, action):
        is_read_request = isinstance(action, RequestCommit) and str(
            action.transaction.path[-1]
        ).startswith("r")
        is_write_request = isinstance(action, RequestCommit) and str(
            action.transaction.path[-1]
        ).startswith("w")
        if isinstance(action, Create):
            return 0
        if is_read_request:
            return 1
        if is_write_request:
            return 3
        return 2

    def choose(self, enabled, owed, aborts):
        if not enabled:
            return None
        return min(enabled, key=lambda a: (self._priority(a), str(a)))


def upgrade_deadlock():
    """Two clients read-then-write the same object: guaranteed deadlock."""
    programs = {
        ROOT: TransactionProgram(
            (
                sub(seq(read(X, "r"), write(X, 1, "w")), "c0"),
                sub(seq(read(X, "r"), write(X, 2, "w")), "c1"),
            ),
            sequential=False,
        )
    }
    return system_type_for({X: RWSpec(initial=0)}, programs), programs


def cross_deadlock():
    """Classic crossed exclusive locks on two objects."""
    programs = {
        ROOT: TransactionProgram(
            (
                sub(seq(write(X, 1, "wx"), write(Y, 1, "wy")), "c0"),
                sub(seq(write(Y, 2, "wy"), write(X, 2, "wx")), "c1"),
            ),
            sequential=False,
        )
    }
    specs = {X: RWSpec(initial=0), Y: RWSpec(initial=0)}
    return system_type_for(specs, programs), programs


class TestWithoutResolution:
    def test_upgrade_deadlock_leaves_both_live(self):
        system_type, programs = upgrade_deadlock()
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(system, ReadsFirstPolicy(), system_type)
        assert result.stats.quiescent
        assert result.stats.top_level_committed == 0
        # the deadlocked prefix is still a behavior Theorem 17 covers
        assert certify(result.behavior, system_type).certified


class TestWithResolution:
    def test_upgrade_deadlock_resolved(self):
        system_type, programs = upgrade_deadlock()
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, ReadsFirstPolicy(), system_type, resolve_deadlocks=True
        )
        assert result.stats.quiescent
        assert result.stats.deadlock_aborts == 1
        assert result.stats.top_level_committed == 1
        assert certify(result.behavior, system_type).certified

    def test_cross_deadlock_resolved(self):
        system_type, programs = cross_deadlock()
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system,
            EagerInformPolicy(seed=1),
            system_type,
            resolve_deadlocks=True,
        )
        assert result.stats.quiescent
        assert result.stats.top_level_committed >= 1
        assert certify(result.behavior, system_type).certified

    def test_victims_are_top_level(self):
        system_type, programs = upgrade_deadlock()
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, ReadsFirstPolicy(), system_type, resolve_deadlocks=True
        )
        victims = [
            action.transaction
            for action in result.behavior
            if isinstance(action, Abort)
        ]
        assert victims and all(victim.depth == 1 for victim in victims)

    def test_no_spurious_resolution_without_contention(self):
        programs = {
            ROOT: TransactionProgram(
                (sub(seq(write(X, 1, "w")), "c0"),), sequential=False
            )
        }
        system_type = system_type_for({X: RWSpec(initial=0)}, programs)
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, RoundRobinPolicy(), system_type, resolve_deadlocks=True
        )
        assert result.stats.deadlock_aborts == 0
        assert result.stats.top_level_committed == 1
