"""Tests for abort injection and recovery behaviour under faults."""

from repro.core.actions import Abort
from repro.core.correctness import certify
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import EagerInformPolicy, RandomPolicy
from repro.sim.workload import WorkloadConfig, generate_workload
from repro.undo.logging import UndoLoggingObject

from conftest import T


def run_with_aborts(object_factory, abort_rate, seed, **workload_kw):
    system_type, programs = generate_workload(
        WorkloadConfig(seed=seed, top_level=4, objects=2, **workload_kw)
    )
    system = make_generic_system(system_type, programs, object_factory)
    policy = AbortInjector(RandomPolicy(seed), abort_rate=abort_rate, seed=seed)
    result = run_system(system, policy, system_type, max_steps=4000)
    return result, system_type, policy


class TestAbortInjector:
    def test_zero_rate_never_aborts(self):
        result, _, policy = run_with_aborts(MossRWLockingObject, 0.0, seed=1)
        assert policy.aborts_injected == 0
        assert result.stats.aborted == 0

    def test_high_rate_aborts(self):
        result, _, policy = run_with_aborts(MossRWLockingObject, 0.5, seed=1)
        assert policy.aborts_injected > 0
        assert result.stats.aborted == policy.aborts_injected

    def test_invalid_rate_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            AbortInjector(RandomPolicy(0), abort_rate=1.5)

    def test_victim_filter(self):
        # only abort non-top-level transactions
        system_type, programs = generate_workload(
            WorkloadConfig(seed=2, top_level=4, objects=2, max_depth=2,
                           subtransaction_probability=0.9)
        )
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        policy = AbortInjector(
            RandomPolicy(2),
            abort_rate=0.4,
            seed=2,
            victim_filter=lambda t: t.depth > 1,
        )
        result = run_system(system, policy, system_type, max_steps=4000)
        for action in result.behavior:
            if isinstance(action, Abort):
                assert action.transaction.depth > 1

    def test_max_aborts_budget(self):
        _, _, policy = run_with_aborts(
            MossRWLockingObject, 0.9, seed=3, max_depth=2
        )
        limited = AbortInjector(RandomPolicy(3), abort_rate=0.9, seed=3, max_aborts=2)
        system_type, programs = generate_workload(
            WorkloadConfig(seed=3, top_level=6, objects=2)
        )
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        run_system(system, limited, system_type, max_steps=4000)
        assert limited.aborts_injected <= 2


class TestRecoveryCorrectness:
    def test_moss_correct_under_abort_storm(self):
        for seed in range(4):
            result, system_type, _ = run_with_aborts(
                MossRWLockingObject, 0.3, seed=seed
            )
            certificate = certify(result.behavior, system_type)
            assert certificate.certified, certificate.explain()
            assert not certificate.witness_problems

    def test_undo_correct_under_abort_storm(self):
        from repro.sim.workload import CounterKind

        for seed in range(4):
            result, system_type, _ = run_with_aborts(
                UndoLoggingObject, 0.3, seed=seed, kind=CounterKind()
            )
            certificate = certify(result.behavior, system_type)
            assert certificate.certified, certificate.explain()
            assert not certificate.witness_problems


class TestScriptedAbortInjector:
    @staticmethod
    def _run(victims, seed=0, inject_rate=1.0):
        from repro.core.names import TransactionName
        from repro.sim.faults import ScriptedAbortInjector

        system_type, programs = generate_workload(
            WorkloadConfig(seed=seed, top_level=4, objects=2)
        )
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        policy = ScriptedAbortInjector(
            EagerInformPolicy(seed=seed),
            {TransactionName((name,)) for name in victims},
            seed=seed,
            inject_rate=inject_rate,
        )
        result = run_system(system, policy, system_type, max_steps=4000)
        return result, policy

    def test_victims_never_commit(self):
        from repro.core.actions import Commit

        for seed in range(5):
            result, policy = self._run({"t0", "t2"}, seed=seed)
            committed = {
                action.transaction.path[0]
                for action in result.behavior
                if isinstance(action, Commit) and action.transaction.depth == 1
            }
            assert committed.isdisjoint({"t0", "t2"})
            assert policy.aborts_injected >= 1

    def test_victims_abort_even_with_low_inject_rate(self):
        # commit_imminent forces the abort regardless of the rate
        from repro.core.actions import Commit

        for seed in range(3):
            result, _ = self._run({"t1"}, seed=seed, inject_rate=0.01)
            for action in result.behavior:
                if isinstance(action, Commit) and action.transaction.depth == 1:
                    assert action.transaction.path != ("t1",)

    def test_non_victims_unaffected(self):
        result, policy = self._run(set(), seed=1)
        assert policy.aborts_injected == 0
        assert result.stats.aborted == 0

    def test_invalid_inject_rate_rejected(self):
        import pytest

        from repro.sim.faults import ScriptedAbortInjector

        with pytest.raises(ValueError, match="inject_rate"):
            ScriptedAbortInjector(EagerInformPolicy(seed=0), set(), inject_rate=0.0)
