"""Tests for the completion order — the proof step of Propositions 16/24."""

import pytest

from repro.core.completion_order import (
    completion_holds,
    completion_positions,
    edges_respect_completion_order,
)
from repro.core.events import serial_projection
from repro.core.serialization_graph import build_serialization_graph
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.locking.read_update import ReadUpdateLockingObject
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import EagerInformPolicy, RandomPolicy
from repro.sim.workload import CounterKind, SetKind, WorkloadConfig, generate_workload
from repro.undo.logging import UndoLoggingObject

from conftest import BehaviorBuilder, T, lost_update_behavior, rw_system


class TestRelation:
    def test_positions(self):
        from repro.core.actions import Abort, Commit, RequestCreate

        behavior = (
            RequestCreate(T("a")),
            RequestCreate(T("b")),
            Abort(T("a")),
            Commit(T("b")),
        )
        positions = completion_positions(behavior)
        assert positions[T("a")] == 2
        assert positions[T("b")] == 3

    def test_holds_semantics(self):
        positions = {T("a"): 1, T("b"): 5}
        assert completion_holds(positions, T("a"), T("b"))
        assert not completion_holds(positions, T("b"), T("a"))
        # completed-vs-never-completed
        assert completion_holds(positions, T("a"), T("c"))
        assert not completion_holds(positions, T("c"), T("a"))
        # non-siblings never related
        assert not completion_holds(positions, T("a"), T("a", "x"))

    def test_cycle_violates_completion_order(self):
        behavior, system_type = lost_update_behavior()
        graph = build_serialization_graph(behavior, system_type)
        offending = edges_respect_completion_order(behavior, graph)
        assert offending  # a cyclic graph cannot sit inside a partial order


def _run(factory, seed, kind=None, abort_rate=0.0):
    config_kw = dict(seed=seed, top_level=5, objects=3, max_depth=2)
    if kind is not None:
        config_kw["kind"] = kind
    system_type, programs = generate_workload(WorkloadConfig(**config_kw))
    system = make_generic_system(system_type, programs, factory)
    policy = (
        AbortInjector(RandomPolicy(seed), abort_rate=abort_rate, seed=seed)
        if abort_rate
        else EagerInformPolicy(seed=seed)
    )
    result = run_system(
        system, policy, system_type, max_steps=8000, resolve_deadlocks=True
    )
    return serial_projection(result.behavior), system_type


class TestProposition16:
    @pytest.mark.parametrize("seed", range(5))
    def test_moss_edges_in_completion_order(self, seed):
        serial, system_type = _run(MossRWLockingObject, seed)
        graph = build_serialization_graph(serial, system_type)
        assert edges_respect_completion_order(serial, graph) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_moss_with_aborts(self, seed):
        serial, system_type = _run(MossRWLockingObject, seed, abort_rate=0.2)
        graph = build_serialization_graph(serial, system_type)
        assert edges_respect_completion_order(serial, graph) == []


class TestProposition24:
    @pytest.mark.parametrize("seed", range(5))
    def test_undo_edges_in_completion_order(self, seed):
        serial, system_type = _run(UndoLoggingObject, seed, kind=CounterKind())
        graph = build_serialization_graph(serial, system_type)
        assert edges_respect_completion_order(serial, graph) == []

    @pytest.mark.parametrize("seed", range(3))
    def test_read_update_edges_in_completion_order(self, seed):
        # the general locking automaton satisfies the same argument
        serial, system_type = _run(ReadUpdateLockingObject, seed, kind=SetKind())
        graph = build_serialization_graph(serial, system_type)
        assert edges_respect_completion_order(serial, graph) == []
