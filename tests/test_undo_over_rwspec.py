"""Undo logging over plain RWSpec objects — the cross-protocol claim.

The undo logging automaton works with any serial specification exposing
``conflicts``/``is_legal``/``result_of``; the docstrings claim that
includes :class:`repro.core.rw_semantics.RWSpec` (yielding a read/write
object with classical conflicts).  These tests back the claim.
"""

import pytest

from repro import (
    Access,
    Create,
    EagerInformPolicy,
    InformCommit,
    ObjectName,
    RandomPolicy,
    ReadOp,
    RequestCommit,
    RWKind,
    RWSpec,
    SystemType,
    UndoLoggingObject,
    WorkloadConfig,
    WriteOp,
    certify,
    generate_workload,
    make_generic_system,
    run_system,
)
from repro.core.rw_semantics import OK
from repro.generic.permissive import PermissiveObject

from conftest import T

X = ObjectName("x")


class TestTransitions:
    def _setup(self):
        system = SystemType({X: RWSpec(initial=0)})
        writer, reader = T("t1", "w"), T("t2", "r")
        system.register_access(writer, Access(X, WriteOp(5)))
        system.register_access(reader, Access(X, ReadOp()))
        return system, UndoLoggingObject(X, system), writer, reader

    def test_classical_conflicts_block_reader(self):
        system, obj, writer, reader = self._setup()
        state = obj.initial_state()
        state = obj.effect(state, Create(writer))
        state = obj.effect(state, RequestCommit(writer, OK))
        state = obj.effect(state, Create(reader))
        # write/read conflict (classical rule): reader waits for commits
        assert not obj.enabled(state, RequestCommit(reader, 5))
        state = obj.effect(state, InformCommit(X, writer))
        state = obj.effect(state, InformCommit(X, T("t1")))
        assert obj.enabled(state, RequestCommit(reader, 5))

    def test_reads_share(self):
        system = SystemType({X: RWSpec(initial=0)})
        r1, r2 = T("t1", "r"), T("t2", "r")
        system.register_access(r1, Access(X, ReadOp()))
        system.register_access(r2, Access(X, ReadOp()))
        obj = UndoLoggingObject(X, system)
        state = obj.initial_state()
        state = obj.effect(state, Create(r1))
        state = obj.effect(state, RequestCommit(r1, 0))
        state = obj.effect(state, Create(r2))
        assert obj.enabled(state, RequestCommit(r2, 0))


@pytest.mark.parametrize("factory", [UndoLoggingObject, PermissiveObject])
def test_a_read_of_none_is_enumerated(factory):
    """A register that was never written reads as ``None``, a legal read
    value: the enumeration must offer it, not count the read blocked."""
    system = SystemType({X: RWSpec()})
    reader = T("t1", "r")
    system.register_access(reader, Access(X, ReadOp()))
    obj = factory(X, system)
    state = obj.effect(obj.initial_state(), Create(reader))
    assert obj.enabled(state, RequestCommit(reader, None))
    assert list(obj.enabled_outputs(state)) == [RequestCommit(reader, None)]
    assert list(obj.blocked_accesses(state)) == []


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(4))
    def test_runs_certify(self, seed):
        system_type, programs = generate_workload(
            WorkloadConfig(seed=seed, top_level=4, objects=2, kind=RWKind())
        )
        system = make_generic_system(system_type, programs, UndoLoggingObject)
        policy = RandomPolicy(seed) if seed % 2 else EagerInformPolicy(seed=seed)
        result = run_system(
            system, policy, system_type, max_steps=6000, resolve_deadlocks=True
        )
        certificate = certify(result.behavior, system_type)
        assert certificate.certified, certificate.explain()
        assert not certificate.witness_problems
