"""Tests for post-run trace analysis."""

from repro.core.names import ROOT
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.analysis import analyze_trace
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.workload import WorkloadConfig, generate_workload

from conftest import BehaviorBuilder, T, rw_system


class TestHandBuilt:
    def test_lifecycle_positions(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")          # events 0 (request), 1 (create)
        b.write(t, "w", "x", 1)       # 2,3 request/create; 4 respond; 5 commit; 6 report
        b.commit(t)                   # 7 request_commit; 8 commit; 9 report
        analysis = analyze_trace(b.build(), system)
        top = analysis.transactions[t]
        assert top.requested_at == 0
        assert top.created_at == 1
        assert top.completed_at == 8
        assert top.outcome == "committed"
        assert top.lifetime == 8
        access = analysis.transactions[t.child("w")]
        assert access.is_access
        assert access.response_latency == 1
        assert access.outcome == "committed"

    def test_aborted_outcome(self):
        from repro.core.actions import Abort, RequestCreate

        system = rw_system("x")
        b = BehaviorBuilder(system)
        b.emit(RequestCreate(T("t")), Abort(T("t")))
        analysis = analyze_trace(b.build(), system)
        assert analysis.transactions[T("t")].outcome == "aborted"
        assert analysis.aborted()[0].transaction == T("t")

    def test_incomplete(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        b.begin_top("t")
        analysis = analyze_trace(b.build(), system)
        assert analysis.transactions[T("t")].outcome == "incomplete"
        assert analysis.transactions[T("t")].lifetime is None

    def test_tree_lines(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.write(t, "w", "x", 1)
        b.commit(t)
        analysis = analyze_trace(b.build(), system)
        lines = analysis.tree_lines(ROOT)
        assert lines[0].startswith("t: committed")
        assert any(line.strip().startswith("w: committed") for line in lines)


class TestOnRuns:
    def test_driver_run_metrics(self):
        system_type, programs = generate_workload(
            WorkloadConfig(seed=4, top_level=4, objects=2)
        )
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, EagerInformPolicy(seed=4), system_type, resolve_deadlocks=True
        )
        analysis = analyze_trace(result.behavior, system_type)
        assert len(analysis.committed()) == result.stats.committed
        assert len(analysis.aborted()) == result.stats.aborted
        latency = analysis.mean_access_latency()
        assert latency is not None and latency >= 1
        lifetime = analysis.mean_commit_lifetime()
        assert lifetime is not None and lifetime > 0
        # every access summary belongs to a registered access
        for summary in analysis.accesses():
            assert system_type.is_access(summary.transaction)

    def test_children_of_root(self):
        system_type, programs = generate_workload(
            WorkloadConfig(seed=4, top_level=4, objects=2)
        )
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, EagerInformPolicy(seed=4), system_type, resolve_deadlocks=True
        )
        analysis = analyze_trace(result.behavior, system_type)
        top_level = analysis.children_of(ROOT)
        assert len(top_level) == 4
