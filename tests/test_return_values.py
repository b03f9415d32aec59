"""Tests for appropriate return values and the current/safe conditions."""

from repro.core.actions import RequestCommit
from repro.core.return_values import (
    check_appropriate_return_values,
    check_current_and_safe,
    has_appropriate_return_values,
    has_appropriate_return_values_rw,
    is_current,
    is_safe,
)
from repro.core.rw_semantics import OK

from conftest import (
    BehaviorBuilder,
    T,
    dirty_read_behavior,
    lost_update_behavior,
    rw_system,
    serial_two_txn_behavior,
)


def _read_positions(behavior, system):
    from repro.core.rw_semantics import is_read_access

    return [
        i
        for i, action in enumerate(behavior)
        if isinstance(action, RequestCommit)
        and is_read_access(action.transaction, system)
    ]


class TestAppropriateReturnValues:
    def test_serial_behavior_has_arv(self):
        behavior, system = serial_two_txn_behavior()
        assert has_appropriate_return_values(behavior, system)
        assert check_appropriate_return_values(behavior, system) == []

    def test_dirty_read_violates_arv(self):
        behavior, system = dirty_read_behavior()
        violations = check_appropriate_return_values(behavior, system)
        assert violations
        assert violations[0].transaction == T("t2", "r")

    def test_lost_update_has_arv(self):
        # Lost update is an ordering anomaly, not a return-value anomaly:
        # both reads saw the then-current value 0 (the writes come later in
        # the visible projection), so ARV holds and rejection must come
        # from the serialization graph instead.
        behavior, system = lost_update_behavior()
        assert has_appropriate_return_values(behavior, system)
        assert has_appropriate_return_values_rw(behavior, system)

    def test_wrong_write_value_violates_arv(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        from repro.core.rw_semantics import WriteOp

        b.access(t, "w", "x", WriteOp(1), "WRONG")
        b.commit(t)
        assert not has_appropriate_return_values(b.build(), system)

    def test_uncommitted_access_ignored(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.read(t, "r", "x", 999, commit=False)  # wrong value but never visible
        behavior = b.build()
        assert has_appropriate_return_values(behavior, system)


class TestLemma5Agreement:
    def test_rw_and_general_agree_on_samples(self):
        for factory in (
            serial_two_txn_behavior,
            dirty_read_behavior,
            lost_update_behavior,
        ):
            behavior, system = factory()
            assert has_appropriate_return_values(
                behavior, system
            ) == has_appropriate_return_values_rw(behavior, system)


class TestCurrentAndSafe:
    def test_serial_reads_current_and_safe(self):
        behavior, system = serial_two_txn_behavior()
        for position in _read_positions(behavior, system):
            assert is_current(behavior, position, system)
            assert is_safe(behavior, position, system)
        assert check_current_and_safe(behavior, system) == []

    def test_dirty_read_not_safe(self):
        behavior, system = dirty_read_behavior()
        (position,) = _read_positions(behavior, system)
        # Current: it read the latest clean value at the time (the writer
        # had not yet aborted), so current holds but safe fails.
        assert is_current(behavior, position, system)
        assert not is_safe(behavior, position, system)
        violations = check_current_and_safe(behavior, system)
        assert any("not safe" in v.reason for v in violations)

    def test_stale_read_not_current(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.write(t1, "w", "x", 5)
        b.commit(t1)
        t2 = b.begin_top("t2")
        b.read(t2, "r", "x", 0)  # stale: clean final value is 5
        b.commit(t2)
        behavior = b.build()
        (position,) = _read_positions(behavior, system)
        assert not is_current(behavior, position, system)
        violations = check_current_and_safe(behavior, system)
        assert any("not current" in v.reason for v in violations)

    def test_read_after_abort_is_current(self):
        # Reading the pre-abort value after INFORM-style rollback: the
        # clean-final-value machinery must ignore the aborted write.
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.write(t1, "w", "x", 5)
        b.abort(t1)
        t2 = b.begin_top("t2")
        b.read(t2, "r", "x", 0)
        b.commit(t2)
        behavior = b.build()
        (position,) = _read_positions(behavior, system)
        assert is_current(behavior, position, system)
        assert is_safe(behavior, position, system)
        assert check_current_and_safe(behavior, system) == []

    def test_lemma6_implies_arv(self):
        # On a batch of hand-built behaviors: current+safe (plus OK writes)
        # implies appropriate return values, as Lemma 6 states.
        for factory in (serial_two_txn_behavior, lost_update_behavior):
            behavior, system = factory()
            if not check_current_and_safe(behavior, system):
                assert has_appropriate_return_values(behavior, system)
