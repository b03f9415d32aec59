"""Tests for the workload generator."""

import pytest

from repro.core.names import ROOT
from repro.core.rw_semantics import ReadOp, WriteOp
from repro.sim.programs import AccessCall, SubtransactionCall, collect_programs
from repro.sim.workload import (
    CounterKind,
    RWKind,
    SetKind,
    WorkloadConfig,
    generate_workload,
)


class TestConfig:
    def test_defaults(self):
        config = WorkloadConfig()
        assert isinstance(config.kind, RWKind)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(max_depth=0)
        with pytest.raises(ValueError):
            WorkloadConfig(hot_object_bias=2.0)


class TestGeneration:
    def test_deterministic_in_seed(self):
        a1, p1 = generate_workload(WorkloadConfig(seed=5))
        a2, p2 = generate_workload(WorkloadConfig(seed=5))
        assert p1 == p2
        assert a1.all_accesses() == a2.all_accesses()

    def test_different_seeds_differ(self):
        _, p1 = generate_workload(WorkloadConfig(seed=1))
        _, p2 = generate_workload(WorkloadConfig(seed=2))
        assert p1 != p2

    def test_root_program_spawns_top_level(self):
        config = WorkloadConfig(top_level=5, seed=0)
        _, programs = generate_workload(config)
        assert set(programs) == {ROOT}
        root = programs[ROOT]
        assert len(root.calls) == 5
        assert all(isinstance(c, SubtransactionCall) for c in root.calls)
        assert not root.sequential

    def test_accesses_registered(self):
        system_type, programs = generate_workload(WorkloadConfig(seed=0))
        flat = collect_programs(programs)
        for name, program in flat.items():
            for call in program.calls:
                if isinstance(call, AccessCall):
                    child = name.child(call.component)
                    assert system_type.is_access(child)
                    assert system_type.object_of(child) == call.obj

    def test_depth_bounded(self):
        config = WorkloadConfig(
            max_depth=2, subtransaction_probability=1.0, seed=3, top_level=3
        )
        system_type, programs = generate_workload(config)
        for access in system_type.all_accesses():
            # depth: root child (1) + nesting <= 2 + access leaf
            assert access.depth <= config.max_depth + 1

    def test_rw_kind_ops(self):
        system_type, _ = generate_workload(WorkloadConfig(seed=0, kind=RWKind()))
        ops = {type(a.op) for a in system_type.all_accesses().values()}
        assert ops <= {ReadOp, WriteOp}

    def test_counter_kind_ops(self):
        from repro.spec.builtin import CounterInc, CounterRead, CounterType

        system_type, _ = generate_workload(
            WorkloadConfig(seed=0, kind=CounterKind())
        )
        ops = {type(a.op) for a in system_type.all_accesses().values()}
        assert ops <= {CounterInc, CounterRead}
        for obj in system_type.object_names():
            assert isinstance(system_type.spec(obj), CounterType)

    def test_hot_object_bias(self):
        from repro.core.names import ObjectName

        config = WorkloadConfig(
            seed=0, objects=8, top_level=20, hot_object_bias=1.0, max_calls=3
        )
        system_type, _ = generate_workload(config)
        objects_touched = {a.obj for a in system_type.all_accesses().values()}
        assert objects_touched == {ObjectName("X0")}

    def test_object_count(self):
        system_type, _ = generate_workload(WorkloadConfig(seed=0, objects=7))
        assert len(system_type.object_names()) == 7
