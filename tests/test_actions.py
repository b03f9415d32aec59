"""Tests for the action vocabulary and the transaction/high/low operators."""

import pytest

from repro.core.actions import (
    Abort,
    Commit,
    Create,
    InformAbort,
    InformCommit,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
    format_behavior,
    hightransaction,
    is_completion,
    is_report,
    is_serial_action,
    lowtransaction,
    object_of,
    transaction_of,
)
from repro.core.names import ROOT, ObjectName
from repro.core.rw_semantics import ReadOp

from conftest import T, rw_system


class TestConstruction:
    def test_root_restrictions(self):
        for cls in (RequestCreate, Commit, Abort, ReportAbort):
            with pytest.raises(ValueError):
                cls(ROOT)
        with pytest.raises(ValueError):
            ReportCommit(ROOT, 1)
        with pytest.raises(ValueError):
            InformCommit(ObjectName("x"), ROOT)
        with pytest.raises(ValueError):
            InformAbort(ObjectName("x"), ROOT)

    def test_create_of_root_allowed_syntactically(self):
        # CREATE(T0) is never emitted by our schedulers but the action
        # constructor itself does not forbid the root name.
        Create(ROOT)

    def test_values_must_be_hashable(self):
        with pytest.raises(TypeError):
            RequestCommit(T("t"), [1, 2])
        with pytest.raises(TypeError):
            ReportCommit(T("t"), ["unhashable"])

    def test_equality_and_hash(self):
        assert RequestCommit(T("t"), 1) == RequestCommit(T("t"), 1)
        assert hash(Commit(T("t"))) == hash(Commit(T("t")))
        assert Commit(T("t")) != Abort(T("t"))


class TestClassification:
    def test_serial_actions(self):
        serial = [
            Create(T("t")),
            RequestCreate(T("t")),
            RequestCommit(T("t"), 1),
            Commit(T("t")),
            Abort(T("t")),
            ReportCommit(T("t"), 1),
            ReportAbort(T("t")),
        ]
        for action in serial:
            assert is_serial_action(action)
        assert not is_serial_action(InformCommit(ObjectName("x"), T("t")))
        assert not is_serial_action(InformAbort(ObjectName("x"), T("t")))

    def test_completions_and_reports(self):
        assert is_completion(Commit(T("t")))
        assert is_completion(Abort(T("t")))
        assert not is_completion(ReportCommit(T("t"), 1))
        assert is_report(ReportCommit(T("t"), 1))
        assert is_report(ReportAbort(T("t")))
        assert not is_report(Commit(T("t")))


class TestOperators:
    def test_transaction_of(self):
        assert transaction_of(Create(T("t", "u"))) == T("t", "u")
        assert transaction_of(RequestCommit(T("t", "u"), 1)) == T("t", "u")
        # requests/reports about a child belong to the parent
        assert transaction_of(RequestCreate(T("t", "u"))) == T("t")
        assert transaction_of(ReportCommit(T("t", "u"), 1)) == T("t")
        assert transaction_of(ReportAbort(T("t", "u"))) == T("t")
        assert transaction_of(Commit(T("t"))) is None
        assert transaction_of(InformCommit(ObjectName("x"), T("t"))) is None

    def test_high_low_for_completions(self):
        commit = Commit(T("t", "u"))
        assert hightransaction(commit) == T("t")
        assert lowtransaction(commit) == T("t", "u")
        abort = Abort(T("t"))
        assert hightransaction(abort) == ROOT
        assert lowtransaction(abort) == T("t")

    def test_high_low_for_non_completions(self):
        action = RequestCreate(T("t", "u"))
        assert hightransaction(action) == T("t")
        assert lowtransaction(action) == T("t")

    def test_high_low_undefined_for_informs(self):
        with pytest.raises(ValueError):
            hightransaction(InformCommit(ObjectName("x"), T("t")))
        with pytest.raises(ValueError):
            lowtransaction(InformAbort(ObjectName("x"), T("t")))

    def test_object_of(self):
        system = rw_system("x")
        access = T("t", "a")
        from repro.core.names import Access

        system.register_access(access, Access(ObjectName("x"), ReadOp()))
        assert object_of(Create(access), system) == ObjectName("x")
        assert object_of(RequestCommit(access, 0), system) == ObjectName("x")
        assert object_of(Create(T("t")), system) is None
        assert object_of(Commit(access), system) is None
        assert object_of(InformCommit(ObjectName("x"), T("t")), system) == ObjectName(
            "x"
        )


def test_format_behavior_lines():
    text = format_behavior([Create(T("t")), Commit(T("t"))])
    lines = text.splitlines()
    assert len(lines) == 2
    assert "CREATE(T0/t)" in lines[0]
    assert "COMMIT(T0/t)" in lines[1]
