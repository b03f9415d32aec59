"""Tests for operations, perform/operations, serial object well-formedness."""

from repro.core.actions import Create, RequestCommit
from repro.core.names import ObjectName
from repro.core.operations import (
    Operation,
    is_serial_object_well_formed,
    operation_payloads,
    operations,
    operations_of_object,
    perform,
)
from repro.core.rw_semantics import OK, ReadOp, WriteOp

from conftest import BehaviorBuilder, T, rw_system


class TestPerform:
    def test_single(self):
        ops = (Operation(T("a"), 1),)
        assert perform(ops) == (Create(T("a")), RequestCommit(T("a"), 1))

    def test_sequence(self):
        ops = (Operation(T("a"), 1), Operation(T("b"), 2))
        actions = perform(ops)
        assert len(actions) == 4
        assert actions[2] == Create(T("b"))

    def test_empty(self):
        assert perform(()) == ()


class TestOperations:
    def test_extracts_access_request_commits(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        access = b.write(t, "w", "x", 9)
        b.commit(t, value="v")
        behavior = b.build()
        ops = operations(behavior, system)
        # the non-access REQUEST_COMMIT(t, "v") is not an operation
        assert ops == (Operation(access, OK),)

    def test_operations_of_object(self):
        system = rw_system("x", "y")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        ax = b.write(t, "wx", "x", 1)
        ay = b.write(t, "wy", "y", 2)
        behavior = b.build()
        assert operations_of_object(behavior, ObjectName("x"), system) == (
            Operation(ax, OK),
        )
        assert operations_of_object(behavior, ObjectName("y"), system) == (
            Operation(ay, OK),
        )

    def test_operation_payloads(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        access = b.read(t, "r", "x", 0)
        payloads = operation_payloads((Operation(access, 0),), system)
        assert payloads == ((ReadOp(), 0),)


class TestSerialObjectWellFormed:
    def test_valid_alternation(self):
        behavior = perform((Operation(T("a"), 1), Operation(T("b"), 2)))
        assert is_serial_object_well_formed(behavior)

    def test_valid_trailing_create(self):
        behavior = perform((Operation(T("a"), 1),)) + (Create(T("b")),)
        assert is_serial_object_well_formed(behavior)

    def test_empty_is_well_formed(self):
        assert is_serial_object_well_formed(())

    def test_duplicate_transaction_rejected(self):
        behavior = perform((Operation(T("a"), 1), Operation(T("a"), 2)))
        assert not is_serial_object_well_formed(behavior)

    def test_response_without_create_rejected(self):
        assert not is_serial_object_well_formed((RequestCommit(T("a"), 1),))

    def test_mismatched_response_rejected(self):
        behavior = (Create(T("a")), RequestCommit(T("b"), 1))
        assert not is_serial_object_well_formed(behavior)

    def test_two_creates_in_a_row_rejected(self):
        assert not is_serial_object_well_formed((Create(T("a")), Create(T("b"))))

    def test_foreign_action_rejected(self):
        from repro.core.actions import Commit

        assert not is_serial_object_well_formed((Commit(T("a")),))
