"""Tests for the classical (flat) baseline: histories, SGT, strict 2PL."""

import random

from repro.classical.histories import (
    FlatAbort,
    FlatCommit,
    FlatRead,
    FlatWrite,
    committed_projection,
    history_to_nested_behavior,
    random_history,
)
from repro.classical.sgt import (
    classical_edges,
    classical_serialization_graph,
    is_conflict_serializable,
)
from repro.classical.two_phase_locking import FlatScript, run_strict_2pl


class TestHistories:
    def test_committed_projection(self):
        history = (
            FlatWrite("T1", "x", 1),
            FlatWrite("T2", "x", 2),
            FlatCommit("T1"),
            FlatAbort("T2"),
        )
        assert committed_projection(history) == (FlatWrite("T1", "x", 1),)

    def test_random_history_deterministic(self):
        assert random_history(3, 2, 4, seed=7) == random_history(3, 2, 4, seed=7)

    def test_random_history_step_counts(self):
        history = random_history(3, 2, 4, seed=1)
        data_steps = [s for s in history if isinstance(s, (FlatRead, FlatWrite))]
        assert len(data_steps) == 12
        commits = [s for s in history if isinstance(s, FlatCommit)]
        assert len(commits) == 3


class TestClassicalSGT:
    def test_serializable_history(self):
        history = (
            FlatWrite("T1", "x", 1),
            FlatCommit("T1"),
            FlatRead("T2", "x"),
            FlatCommit("T2"),
        )
        assert is_conflict_serializable(history)
        assert classical_edges(history) == {("T1", "T2")}

    def test_nonserializable_lost_update(self):
        history = (
            FlatRead("T1", "x"),
            FlatRead("T2", "x"),
            FlatWrite("T1", "x", 1),
            FlatWrite("T2", "x", 2),
            FlatCommit("T1"),
            FlatCommit("T2"),
        )
        assert not is_conflict_serializable(history)

    def test_reads_do_not_conflict(self):
        history = (
            FlatRead("T1", "x"),
            FlatRead("T2", "x"),
            FlatCommit("T1"),
            FlatCommit("T2"),
        )
        assert classical_edges(history) == set()

    def test_aborted_transactions_excluded(self):
        history = (
            FlatWrite("T1", "x", 1),
            FlatWrite("T2", "x", 2),
            FlatAbort("T1"),
            FlatCommit("T2"),
        )
        assert classical_edges(history) == set()
        assert is_conflict_serializable(history)


class TestStrict2PL:
    def test_output_always_serializable(self):
        rng = random.Random(0)
        for trial in range(10):
            scripts = [
                FlatScript.random(f"T{i}", objects=3, length=4, rng=rng)
                for i in range(4)
            ]
            history, aborts = run_strict_2pl(scripts, seed=trial)
            assert is_conflict_serializable(history)

    def test_all_transactions_eventually_commit(self):
        rng = random.Random(5)
        scripts = [
            FlatScript.random(f"T{i}", objects=2, length=3, rng=rng)
            for i in range(3)
        ]
        history, _ = run_strict_2pl(scripts, seed=5)
        commits = {s.txn for s in history if isinstance(s, FlatCommit)}
        # every original transaction commits under its own or a retry name
        for i in range(3):
            assert any(name.startswith(f"T{i}") for name in commits)

    def test_deadlock_resolution(self):
        # classic deadlock: T1 locks x then wants y; T2 locks y then wants x
        scripts = [
            FlatScript("T1", [("w", "x", 1), ("w", "y", 1)]),
            FlatScript("T2", [("w", "y", 2), ("w", "x", 2)]),
        ]
        # try several seeds; at least one interleaving must deadlock and
        # still terminate with both transactions (or retries) committed
        for seed in range(10):
            history, aborts = run_strict_2pl(scripts, seed=seed)
            assert is_conflict_serializable(history)
            commits = {s.txn for s in history if isinstance(s, FlatCommit)}
            assert any(n.startswith("T1") for n in commits)
            assert any(n.startswith("T2") for n in commits)


class TestNestedTranslation:
    def test_translation_registers_accesses(self):
        history = (
            FlatWrite("T1", "x", 1),
            FlatCommit("T1"),
            FlatRead("T2", "x"),
            FlatCommit("T2"),
        )
        behavior, system_type = history_to_nested_behavior(history)
        assert len(system_type.all_accesses()) == 2
        from repro.core.events import serial_projection
        from repro.serial.simple_db import check_simple_behavior

        assert check_simple_behavior(serial_projection(behavior), system_type) == []

    def test_translation_read_values_follow_update_in_place(self):
        from repro.core.actions import RequestCommit

        history = (
            FlatWrite("T1", "x", 42),
            FlatCommit("T1"),
            FlatRead("T2", "x"),
            FlatCommit("T2"),
        )
        behavior, system_type = history_to_nested_behavior(history)
        reads = [
            a
            for a in behavior
            if isinstance(a, RequestCommit)
            and system_type.is_access(a.transaction)
            and a.transaction.path[0] == "T2"
        ]
        assert reads[0].value == 42
