"""Tests for the Theorem 8/19 certifier, witness construction and validation."""

import pytest

from repro import (
    ROOT,
    Abort,
    Commit,
    Create,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
    SiblingOrder,
    WitnessError,
    build_witness,
    certify,
    project_transaction,
    serial_projection,
    validate_serial_behavior,
)

from conftest import (
    BehaviorBuilder,
    T,
    blind_write_cycle_behavior,
    dirty_read_behavior,
    lost_update_behavior,
    rw_system,
    serial_two_txn_behavior,
)


class TestCertify:
    def test_serial_behavior_certified(self):
        behavior, system = serial_two_txn_behavior()
        certificate = certify(behavior, system)
        assert certificate.certified
        assert certificate.has_appropriate_return_values
        assert certificate.graph_is_acyclic
        assert certificate.witness is not None
        assert certificate.witness_problems == []
        assert "CERTIFIED" in certificate.explain()

    def test_lost_update_rejected_on_cycle(self):
        behavior, system = lost_update_behavior()
        certificate = certify(behavior, system)
        assert not certificate.certified
        assert certificate.has_appropriate_return_values
        assert not certificate.graph_is_acyclic
        assert "cycle" in certificate.explain()

    def test_dirty_read_rejected_on_arv(self):
        behavior, system = dirty_read_behavior()
        certificate = certify(behavior, system)
        assert not certificate.certified
        assert certificate.arv_violations
        assert "return values" in certificate.explain()

    def test_blind_write_cycle_rejected(self):
        # sufficiency, not necessity: rejected here, accepted by the oracle
        behavior, system = blind_write_cycle_behavior()
        assert not certify(behavior, system, construct_witness=False).certified

    def test_empty_behavior_certified(self):
        system = rw_system("x")
        certificate = certify((), system)
        assert certificate.certified
        assert certificate.witness == ()

    def test_interleaved_compatible_reads_certified(self):
        # two concurrent readers: no conflicts, both orders fine
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.read(t1, "r", "x", 0)
        b.read(t2, "r", "x", 0)
        b.commit(t2)
        b.commit(t1)
        certificate = certify(b.build(), system)
        assert certificate.certified
        assert certificate.witness_problems == []


class TestWitness:
    def test_witness_preserves_visible_projections(self):
        behavior, system = serial_two_txn_behavior()
        certificate = certify(behavior, system)
        witness = certificate.witness
        serial = serial_projection(behavior)
        for transaction in (ROOT, T("t1"), T("t2"), T("t1", "w"), T("t2", "r")):
            assert project_transaction(witness, transaction) == project_transaction(
                serial, transaction
            )

    def test_witness_is_valid_serial_behavior(self):
        behavior, system = serial_two_txn_behavior()
        certificate = certify(behavior, system)
        assert validate_serial_behavior(certificate.witness, system) == []

    def test_witness_serialises_interleaved_run(self):
        # concurrent siblings with a conflict in one direction only
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.write(t1, "w", "x", 3)
        b.read(t2, "r", "x", 3)
        b.commit(t1)
        b.commit(t2)
        certificate = certify(b.build(), system)
        assert certificate.certified and not certificate.witness_problems
        witness = certificate.witness
        # in the witness t1 runs entirely before t2's access
        w_commit = witness.index(Commit(T("t1", "w")))
        r_create = witness.index(Create(T("t2", "r")))
        assert w_commit < r_create

    def test_witness_with_aborted_child(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.write(t1, "w", "x", 1)
        b.commit(t1)
        t2 = T("t2")
        b.emit(RequestCreate(t2))
        b.abort(t2)
        certificate = certify(b.build(), system)
        assert certificate.certified and not certificate.witness_problems
        witness = certificate.witness
        # in the serial witness, t2 is aborted without ever being created
        assert Abort(t2) in witness
        assert Create(t2) not in witness

    def test_witness_with_committed_but_unreported_child(self):
        # a committed top-level transaction whose report never reached T0
        # must still appear in the witness (its effects are visible)
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        access = b.write(t1, "w", "x", 1)
        b.emit(RequestCommit(t1, "done"), Commit(t1))  # no REPORT_COMMIT
        certificate = certify(b.build(), system)
        assert certificate.certified and not certificate.witness_problems
        assert Commit(access) in certificate.witness

    def test_bad_order_yields_invalid_witness(self):
        # an order contradicting the conflict direction produces a witness
        # that fails object-legality validation (this is how the oracle
        # prunes wrong orders)
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.write(t1, "w", "x", 1)
        b.read(t2, "r", "x", 1)
        b.commit(t1)
        b.commit(t2)
        serial = serial_projection(b.build())
        bad_order = SiblingOrder(
            {
                ROOT: [T("t2"), T("t1")],
                T("t1"): [T("t1", "w")],
                T("t2"): [T("t2", "r")],
            }
        )
        witness = build_witness(serial, system, bad_order)
        assert validate_serial_behavior(witness, system) != []

    def test_report_for_uncommitted_child_raises(self):
        # a malformed input (report of a commit that never happened) cannot
        # be woven into a serial witness
        system = rw_system("x")
        behavior = (
            RequestCreate(T("t1")),
            Create(T("t1")),
            ReportCommit(T("t1"), "done"),  # no COMMIT(t1) anywhere
        )
        with pytest.raises(WitnessError):
            build_witness(behavior, system, SiblingOrder({ROOT: [T("t1")]}))


class TestValidateSerialBehavior:
    def test_accepts_canonical_serial(self):
        behavior, system = serial_two_txn_behavior()
        # this hand-built behavior is itself serial
        assert validate_serial_behavior(behavior, system) == []

    def test_rejects_sibling_overlap(self):
        system = rw_system("x")
        problems = validate_serial_behavior(
            (
                RequestCreate(T("a")),
                RequestCreate(T("b")),
                Create(T("a")),
                Create(T("b")),  # sibling overlap!
            ),
            system,
        )
        assert any("still active" in p for p in problems)

    def test_rejects_create_without_request(self):
        system = rw_system("x")
        problems = validate_serial_behavior((Create(T("a")),), system)
        assert any("without REQUEST_CREATE" in p for p in problems)

    def test_rejects_abort_after_create(self):
        system = rw_system("x")
        problems = validate_serial_behavior(
            (RequestCreate(T("a")), Create(T("a")), Abort(T("a"))), system
        )
        assert any("never-created" in p for p in problems)

    def test_rejects_commit_before_children_complete(self):
        system = rw_system("x")
        problems = validate_serial_behavior(
            (
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCreate(T("a", "b")),
                RequestCommit(T("a"), 1),
                Commit(T("a")),
            ),
            system,
        )
        assert any("child" in p for p in problems)

    def test_rejects_wrong_report_value(self):
        system = rw_system("x")
        problems = validate_serial_behavior(
            (
                RequestCreate(T("a")),
                Create(T("a")),
                RequestCommit(T("a"), 1),
                Commit(T("a")),
                ReportCommit(T("a"), 2),
            ),
            system,
        )
        assert any("differs" in p for p in problems)

    def test_rejects_illegal_object_sequence(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.write(t, "w", "x", 5)
        b.read(t, "r", "x", 99)  # wrong read value
        b.commit(t)
        problems = validate_serial_behavior(b.build(), system)
        assert any("illegal" in p for p in problems)

    def test_rejects_report_abort_without_abort(self):
        system = rw_system("x")
        problems = validate_serial_behavior((ReportAbort(T("a")),), system)
        assert any("REPORT_ABORT without" in p for p in problems)


class TestTransactionWellFormedness:
    def test_request_before_parent_created_rejected(self):
        system = rw_system("x")
        problems = validate_serial_behavior(
            (
                RequestCreate(T("a")),
                RequestCreate(T("a", "child")),  # a not yet created!
            ),
            system,
        )
        assert any("before being created" in p for p in problems)

    def test_root_requests_need_no_create(self):
        system = rw_system("x")
        problems = validate_serial_behavior((RequestCreate(T("a")),), system)
        assert problems == []
