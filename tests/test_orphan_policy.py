"""Tests for OrphanFreePolicy — limiting wasted orphan work."""

from repro.core.actions import Create, RequestCommit, RequestCreate
from repro.core.correctness import certify
from repro.core.events import StatusIndex, serial_projection
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import OrphanFreePolicy, RandomPolicy
from repro.sim.workload import RWKind, WorkloadConfig, generate_workload


def run(seed, orphan_free: bool):
    system_type, programs = generate_workload(
        WorkloadConfig(
            seed=seed, top_level=5, objects=2, max_depth=2,
            subtransaction_probability=0.6,
        )
    )
    system = make_generic_system(system_type, programs, MossRWLockingObject)
    policy = AbortInjector(RandomPolicy(seed), abort_rate=0.25, seed=seed)
    if orphan_free:
        policy = OrphanFreePolicy(policy)
    result = run_system(
        system, policy, system_type, max_steps=6000, resolve_deadlocks=True
    )
    return result, system_type, policy


#: The steps the filter refuses to take on behalf of an orphan.
ORPHAN_WORK = (Create, RequestCreate, RequestCommit)


def orphan_steps(behavior, kinds=(Create,)):
    """Events of ``kinds`` (CREATEs by default) performed on behalf of
    already-aborted ancestors."""
    aborted = set()
    count = 0
    from repro.core.actions import Abort

    for action in behavior:
        if isinstance(action, Abort):
            aborted.add(action.transaction)
        elif isinstance(action, kinds):
            if any(a.is_ancestor_of(action.transaction) for a in aborted):
                count += 1
    return count


class TestOrphanFreePolicy:
    def test_never_creates_orphans(self):
        for seed in range(6):
            result, system_type, policy = run(seed, orphan_free=True)
            assert orphan_steps(result.behavior) == 0, seed
            certificate = certify(result.behavior, system_type)
            assert certificate.certified, certificate.explain()

    def test_baseline_does_create_orphans(self):
        # without the filter, at least one seed exhibits orphan work
        total = sum(
            orphan_steps(run(seed, orphan_free=False)[0].behavior)
            for seed in range(6)
        )
        assert total > 0

    def test_filter_inside_an_abort_injector_sees_its_aborts(self):
        """Wrapped by the injector, the filter observes the aborts the
        injector schedules, so no orphan work follows them."""
        for seed in range(6):
            system_type, programs = generate_workload(
                WorkloadConfig(seed=seed, top_level=8, objects=3, kind=RWKind())
            )
            system = make_generic_system(system_type, programs, MossRWLockingObject)
            orphan_free = OrphanFreePolicy(RandomPolicy(seed))
            policy = AbortInjector(orphan_free, abort_rate=0.25, seed=seed)
            result = run_system(system, policy, system_type, resolve_deadlocks=True)
            assert orphan_steps(result.behavior, ORPHAN_WORK) == 0, seed
            assert orphan_free.filtered_out > 0, seed

    def test_filter_counter_advances(self):
        filtered = 0
        for seed in range(6):
            _, _, policy = run(seed, orphan_free=True)
            filtered += policy.filtered_out
        assert filtered > 0

    def test_correctness_unaffected_either_way(self):
        # orphans running or not, Theorem 17 holds
        for seed in range(4):
            for orphan_free in (False, True):
                result, system_type, _ = run(seed, orphan_free=orphan_free)
                assert certify(result.behavior, system_type).certified
