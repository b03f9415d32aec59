"""Tests for the multiversion timestamp ordering extension."""

import pytest

from repro.core.actions import Create, InformAbort, InformCommit, RequestCommit
from repro.core.correctness import certify
from repro.core.names import Access, ObjectName, SystemType
from repro.core.oracle import oracle_serially_correct
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from repro.extensions.mvto import MVTORWObject
from repro.spec.builtin import CounterType

from conftest import T

X = ObjectName("x")


def setup(*accesses):
    system = SystemType({X: RWSpec(initial=0)})
    for name, operation in accesses:
        system.register_access(name, Access(X, operation))
    return system, MVTORWObject(X, system)


def commit_chain(obj, state, access):
    """Deliver INFORM_COMMITs for the access and its proper ancestors."""
    for ancestor in access.ancestors():
        if not ancestor.is_root:
            state = obj.effect(state, InformCommit(X, ancestor))
    return state


class TestBasics:
    def test_requires_rwspec(self):
        system = SystemType({X: CounterType()})
        with pytest.raises(TypeError):
            MVTORWObject(X, system)

    def test_initial_read(self):
        reader = T("t0", "r")
        _, obj = setup((reader, ReadOp()))
        state = obj.effect(obj.initial_state(), Create(reader))
        assert obj.enabled(state, RequestCommit(reader, 0))

    def test_write_then_committed_read(self):
        writer, reader = T("t0", "w"), T("t1", "r")
        _, obj = setup((writer, WriteOp(9)), (reader, ReadOp()))
        state = obj.initial_state()
        state = obj.effect(state, Create(writer))
        state = obj.effect(state, RequestCommit(writer, OK))
        state = obj.effect(state, Create(reader))
        # writer chain not yet committed: the read waits
        assert not obj.enabled(state, RequestCommit(reader, 9))
        assert reader in set(obj.blocked_accesses(state))
        state = commit_chain(obj, state, writer)
        assert obj.enabled(state, RequestCommit(reader, 9))


class TestTimestampOrdering:
    def test_early_reader_sees_old_version(self):
        """The multiversion signature move: a low-timestamp reader running
        *after* a high-timestamp writer still reads the old version."""
        writer, reader = T("t1", "w"), T("t0", "r")  # ts(t0) < ts(t1)
        _, obj = setup((writer, WriteOp(9)), (reader, ReadOp()))
        state = obj.initial_state()
        state = obj.effect(state, Create(writer))
        state = obj.effect(state, RequestCommit(writer, OK))
        state = commit_chain(obj, state, writer)
        state = obj.effect(state, Create(reader))
        # event order says 9; timestamp order says the initial 0
        assert obj.enabled(state, RequestCommit(reader, 0))
        assert not obj.enabled(state, RequestCommit(reader, 9))

    def test_late_write_refused_after_later_read(self):
        """MVTO write rule: t0's write is refused once t1 read version 0."""
        reader, writer = T("t1", "r"), T("t0", "w")
        _, obj = setup((reader, ReadOp()), (writer, WriteOp(5)))
        state = obj.initial_state()
        state = obj.effect(state, Create(reader))
        state = obj.effect(state, RequestCommit(reader, 0))  # reads initial
        state = obj.effect(state, Create(writer))
        assert not obj.enabled(state, RequestCommit(writer, OK))
        assert writer in set(obj.blocked_accesses(state))

    def test_write_allowed_when_reader_is_earlier(self):
        reader, writer = T("t0", "r"), T("t1", "w")
        _, obj = setup((reader, ReadOp()), (writer, WriteOp(5)))
        state = obj.initial_state()
        state = obj.effect(state, Create(reader))
        state = obj.effect(state, RequestCommit(reader, 0))
        state = obj.effect(state, Create(writer))
        assert obj.enabled(state, RequestCommit(writer, OK))

    def test_own_write_visible_to_own_read(self):
        writer, reader = T("t0", "w"), T("t0", "r")
        _, obj = setup((writer, WriteOp(4)), (reader, ReadOp()))
        state = obj.initial_state()
        state = obj.effect(state, Create(writer))
        state = obj.effect(state, RequestCommit(writer, OK))
        state = obj.effect(state, InformCommit(X, writer))  # access committed
        state = obj.effect(state, Create(reader))
        assert obj.enabled(state, RequestCommit(reader, 4))


class TestAborts:
    def test_abort_removes_versions(self):
        writer, reader = T("t0", "w"), T("t1", "r")
        _, obj = setup((writer, WriteOp(9)), (reader, ReadOp()))
        state = obj.initial_state()
        state = obj.effect(state, Create(writer))
        state = obj.effect(state, RequestCommit(writer, OK))
        state = obj.effect(state, InformAbort(X, T("t0")))
        state = obj.effect(state, Create(reader))
        assert obj.enabled(state, RequestCommit(reader, 0))

    def test_abort_removes_reads(self):
        reader, writer = T("t1", "r"), T("t0", "w")
        _, obj = setup((reader, ReadOp()), (writer, WriteOp(5)))
        state = obj.initial_state()
        state = obj.effect(state, Create(reader))
        state = obj.effect(state, RequestCommit(reader, 0))
        state = obj.effect(state, InformAbort(X, T("t1")))
        state = obj.effect(state, Create(writer))
        # the blocking read is gone: the write proceeds
        assert obj.enabled(state, RequestCommit(writer, OK))


class TestBoundary:
    def test_stale_read_run_is_correct_but_rejected(self):
        """The E10 phenomenon in miniature: a full MVTO run that is
        serially correct (oracle) but rejected by the SG test (stale-read
        ARV failure against event order)."""
        from repro.core.actions import Commit, ReportCommit, RequestCreate

        system, obj = setup()
        behavior = []

        def top(name):
            t = T(name)
            behavior.extend([RequestCreate(t), Create(t)])
            return t

        def ceremony(parent, comp, operation, value):
            access = parent.child(comp)
            system.register_access(access, Access(X, operation))
            behavior.extend(
                [
                    RequestCreate(access),
                    Create(access),
                    RequestCommit(access, value),
                    Commit(access),
                    ReportCommit(access, value),
                ]
            )

        def commit(t):
            behavior.extend(
                [RequestCommit(t, "done"), Commit(t), ReportCommit(t, "done")]
            )

        t0, t1 = top("t0"), top("t1")
        ceremony(t1, "w", WriteOp(9), OK)   # high-ts writer goes first
        commit(t1)
        ceremony(t0, "r", ReadOp(), 0)      # low-ts reader reads OLD version
        commit(t0)
        case = tuple(behavior)
        certificate = certify(case, system)
        assert not certificate.certified      # event-order ARV fails
        assert oracle_serially_correct(case, system)  # but ts-order works
