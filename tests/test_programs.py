"""Tests for the transaction-program DSL and the ProgramTransaction automaton."""

import pytest

from repro.core.actions import (
    Create,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.names import ObjectName
from repro.core.rw_semantics import ReadOp, RWSpec, WriteOp
from repro.sim.programs import (
    AccessCall,
    ProgramTransaction,
    SubtransactionCall,
    TransactionProgram,
    collect_programs,
    op,
    par,
    read,
    seq,
    sub,
    system_type_for,
    write,
)

from conftest import T


X = ObjectName("x")


class TestDSL:
    def test_read_write_helpers(self):
        call = read(X)
        assert isinstance(call.op, ReadOp)
        call = write(X, 5, component="w")
        assert call.component == "w"
        assert call.op == WriteOp(5)

    def test_seq_renames_duplicates(self):
        program = seq(read(X), read(X))
        names = [c.component for c in program.calls]
        assert len(set(names)) == 2
        assert program.sequential

    def test_par(self):
        program = par(read(X), write(X, 1))
        assert not program.sequential

    def test_duplicate_components_rejected(self):
        with pytest.raises(ValueError):
            TransactionProgram((read(X, "a"), write(X, 1, "a")))

    def test_result_value_constant_and_callable(self):
        program = seq(read(X, "a"), result="fixed")
        assert program.result_value({}) == "fixed"
        program = seq(read(X, "a"), result=lambda o: o["a"][1])
        assert program.result_value({"a": ("commit", 42)}) == 42

    def test_system_type_for_registers_nested_accesses(self):
        inner = seq(read(X, "r"))
        outer = seq(sub(inner, "child"), write(X, 9, "w"))
        system = system_type_for({X: RWSpec()}, {T("t"): outer})
        assert system.is_access(T("t", "child", "r"))
        assert system.is_access(T("t", "w"))
        assert not system.is_access(T("t", "child"))

    def test_collect_programs_flattens(self):
        inner = seq(read(X, "r"))
        outer = seq(sub(inner, "child"))
        flat = collect_programs({T("t"): outer})
        assert set(flat) == {T("t"), T("t", "child")}


class TestProgramTransaction:
    def _automaton(self, program, name=None):
        return ProgramTransaction(name or T("t"), program)

    def test_waits_for_create(self):
        automaton = self._automaton(seq(read(X, "a")))
        state = automaton.initial_state()
        assert list(automaton.enabled_outputs(state)) == []
        state = automaton.effect(state, Create(T("t")))
        assert list(automaton.enabled_outputs(state)) == [
            RequestCreate(T("t", "a"))
        ]

    def test_sequential_waits_for_report(self):
        automaton = self._automaton(seq(read(X, "a"), read(X, "b")))
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "a")))
        assert list(automaton.enabled_outputs(state)) == []
        state = automaton.effect(state, ReportCommit(T("t", "a"), 0))
        assert list(automaton.enabled_outputs(state)) == [
            RequestCreate(T("t", "b"))
        ]

    def test_parallel_requests_all(self):
        automaton = self._automaton(par(read(X, "a"), read(X, "b")))
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        outputs = set(automaton.enabled_outputs(state))
        assert outputs == {RequestCreate(T("t", "a")), RequestCreate(T("t", "b"))}

    def test_commit_after_all_reports(self):
        automaton = self._automaton(par(read(X, "a"), read(X, "b"), result="v"))
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "a")))
        state = automaton.effect(state, RequestCreate(T("t", "b")))
        state = automaton.effect(state, ReportCommit(T("t", "a"), 0))
        assert not any(
            isinstance(a, RequestCommit) for a in automaton.enabled_outputs(state)
        )
        state = automaton.effect(state, ReportAbort(T("t", "b")))
        assert RequestCommit(T("t"), "v") in set(automaton.enabled_outputs(state))

    def test_abort_outcome_feeds_result(self):
        program = par(
            read(X, "a"),
            result=lambda outcomes: "aborted" if outcomes["a"] == ("abort",) else "ok",
        )
        automaton = self._automaton(program)
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "a")))
        state = automaton.effect(state, ReportAbort(T("t", "a")))
        assert RequestCommit(T("t"), "aborted") in set(
            automaton.enabled_outputs(state)
        )

    def test_no_duplicate_requests(self):
        automaton = self._automaton(par(read(X, "a")))
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "a")))
        assert RequestCreate(T("t", "a")) not in set(
            automaton.enabled_outputs(state)
        )

    def test_root_starts_created_and_never_commits(self):
        automaton = ProgramTransaction(T(), par(sub(seq(read(X, "r")), "t1")))
        state = automaton.initial_state()
        assert state.created
        outputs = set(automaton.enabled_outputs(state))
        assert outputs == {RequestCreate(T("t1"))}
        state = automaton.effect(state, RequestCreate(T("t1")))
        state = automaton.effect(state, ReportCommit(T("t1"), "ok"))
        assert not any(
            isinstance(a, RequestCommit) for a in automaton.enabled_outputs(state)
        )

    def test_signature(self):
        automaton = self._automaton(seq(read(X, "a")))
        assert automaton.is_input(Create(T("t")))
        assert automaton.is_input(ReportCommit(T("t", "a"), 0))
        assert automaton.is_output(RequestCreate(T("t", "a")))
        assert automaton.is_output(RequestCommit(T("t"), 1))
        # children not in the program are not in the signature
        assert not automaton.is_input(ReportCommit(T("t", "zzz"), 0))

    def test_duplicate_report_ignored(self):
        automaton = self._automaton(par(read(X, "a")))
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "a")))
        state = automaton.effect(state, ReportCommit(T("t", "a"), 1))
        state2 = automaton.effect(state, ReportCommit(T("t", "a"), 2))
        assert state2.outcome_map() == state.outcome_map()


class TestAlternativeCalls:
    """The retry pattern: a call issued only after another call aborts."""

    def _program(self, sequential=False):
        primary = read(X, "primary")
        fallback = AccessCall("fallback", X, ReadOp(), after_abort_of="primary")
        return TransactionProgram((primary, fallback), sequential=sequential)

    def test_alternative_must_follow_trigger(self):
        with pytest.raises(ValueError):
            TransactionProgram(
                (
                    AccessCall("fallback", X, ReadOp(), after_abort_of="primary"),
                    read(X, "primary"),
                )
            )

    def test_alternative_not_requested_initially(self):
        automaton = ProgramTransaction(T("t"), self._program())
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        outputs = set(automaton.enabled_outputs(state))
        assert RequestCreate(T("t", "primary")) in outputs
        assert RequestCreate(T("t", "fallback")) not in outputs

    def test_alternative_triggered_by_abort(self):
        from repro.core.actions import ReportAbort

        automaton = ProgramTransaction(T("t"), self._program())
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "primary")))
        state = automaton.effect(state, ReportAbort(T("t", "primary")))
        outputs = set(automaton.enabled_outputs(state))
        assert RequestCreate(T("t", "fallback")) in outputs
        # not ready to commit until the fallback reports
        assert not any(isinstance(a, RequestCommit) for a in outputs)
        state = automaton.effect(state, RequestCreate(T("t", "fallback")))
        state = automaton.effect(state, ReportCommit(T("t", "fallback"), 0))
        assert any(
            isinstance(a, RequestCommit) for a in automaton.enabled_outputs(state)
        )

    def test_alternative_skipped_on_commit(self):
        automaton = ProgramTransaction(T("t"), self._program())
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "primary")))
        state = automaton.effect(state, ReportCommit(T("t", "primary"), 0))
        outputs = set(automaton.enabled_outputs(state))
        assert RequestCreate(T("t", "fallback")) not in outputs
        assert any(isinstance(a, RequestCommit) for a in outputs)

    def test_sequential_successor_waits_for_active_alternative(self):
        from repro.core.actions import ReportAbort

        program = TransactionProgram(
            (
                read(X, "primary"),
                AccessCall("fallback", X, ReadOp(), after_abort_of="primary"),
                read(X, "final"),
            ),
            sequential=True,
        )
        automaton = ProgramTransaction(T("t"), program)
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "primary")))
        state = automaton.effect(state, ReportAbort(T("t", "primary")))
        outputs = set(automaton.enabled_outputs(state))
        # the fallback goes next; 'final' waits for it
        assert RequestCreate(T("t", "fallback")) in outputs
        assert RequestCreate(T("t", "final")) not in outputs
        state = automaton.effect(state, RequestCreate(T("t", "fallback")))
        state = automaton.effect(state, ReportCommit(T("t", "fallback"), 0))
        outputs = set(automaton.enabled_outputs(state))
        assert RequestCreate(T("t", "final")) in outputs

    def test_sequential_successor_skips_inactive_alternative(self):
        program = TransactionProgram(
            (
                read(X, "primary"),
                AccessCall("fallback", X, ReadOp(), after_abort_of="primary"),
                read(X, "final"),
            ),
            sequential=True,
        )
        automaton = ProgramTransaction(T("t"), program)
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "primary")))
        state = automaton.effect(state, ReportCommit(T("t", "primary"), 0))
        outputs = set(automaton.enabled_outputs(state))
        assert RequestCreate(T("t", "final")) in outputs
        assert RequestCreate(T("t", "fallback")) not in outputs

    def test_parallel_alternative_waits_for_sibling(self):
        """In a parallel program the alternative still gates on its
        trigger: unrelated siblings launch immediately, the alternative
        does not."""
        program = TransactionProgram(
            (
                read(X, "primary"),
                read(X, "other"),
                AccessCall("fallback", X, ReadOp(), after_abort_of="primary"),
            ),
            sequential=False,
        )
        automaton = ProgramTransaction(T("t"), program)
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        outputs = set(automaton.enabled_outputs(state))
        assert RequestCreate(T("t", "primary")) in outputs
        assert RequestCreate(T("t", "other")) in outputs
        assert RequestCreate(T("t", "fallback")) not in outputs

    def test_parallel_alternative_taken_on_sibling_abort(self):
        from repro.core.actions import ReportAbort

        program = TransactionProgram(
            (
                read(X, "primary"),
                read(X, "other"),
                AccessCall("fallback", X, ReadOp(), after_abort_of="primary"),
            ),
            sequential=False,
        )
        automaton = ProgramTransaction(T("t"), program)
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "primary")))
        state = automaton.effect(state, RequestCreate(T("t", "other")))
        state = automaton.effect(state, ReportAbort(T("t", "primary")))
        outputs = set(automaton.enabled_outputs(state))
        assert RequestCreate(T("t", "fallback")) in outputs
        # commit still waits on 'other' and the fallback
        assert not any(isinstance(a, RequestCommit) for a in outputs)
        state = automaton.effect(state, RequestCreate(T("t", "fallback")))
        state = automaton.effect(state, ReportCommit(T("t", "other"), 0))
        state = automaton.effect(state, ReportCommit(T("t", "fallback"), 0))
        assert any(
            isinstance(a, RequestCommit) for a in automaton.enabled_outputs(state)
        )

    def test_parallel_alternative_skipped_on_sibling_commit(self):
        program = TransactionProgram(
            (
                read(X, "primary"),
                read(X, "other"),
                AccessCall("fallback", X, ReadOp(), after_abort_of="primary"),
            ),
            sequential=False,
        )
        automaton = ProgramTransaction(T("t"), program)
        state = automaton.effect(automaton.initial_state(), Create(T("t")))
        state = automaton.effect(state, RequestCreate(T("t", "primary")))
        state = automaton.effect(state, RequestCreate(T("t", "other")))
        state = automaton.effect(state, ReportCommit(T("t", "primary"), 0))
        outputs = set(automaton.enabled_outputs(state))
        assert RequestCreate(T("t", "fallback")) not in outputs
        state = automaton.effect(state, ReportCommit(T("t", "other"), 0))
        outputs = set(automaton.enabled_outputs(state))
        # the inactive alternative never blocks the commit
        assert RequestCreate(T("t", "fallback")) not in outputs
        assert any(isinstance(a, RequestCommit) for a in outputs)

    def test_end_to_end_retry_run_certifies(self):
        """Whole-system test: a transfer whose debit is aborted retries
        against a fallback account, and the run still certifies."""
        from repro.core.actions import Abort
        from repro.core.correctness import certify
        from repro.core.names import ROOT, ObjectName
        from repro.generic.system import make_generic_system
        from repro.sim.driver import run_system
        from repro.sim.policies import EagerInformPolicy, SchedulingPolicy
        from repro.spec.builtin import BankAccountType, Withdraw
        from repro.undo.logging import UndoLoggingObject

        primary_acct, backup_acct = ObjectName("primary"), ObjectName("backup")
        transfer = TransactionProgram(
            (
                SubtransactionCall(
                    "debit", seq(op(primary_acct, Withdraw(10), "w"))
                ),
                SubtransactionCall(
                    "debit_backup",
                    seq(op(backup_acct, Withdraw(10), "w")),
                    after_abort_of="debit",
                ),
            ),
            sequential=True,
        )
        programs = {ROOT: TransactionProgram((sub(transfer, "t"),))}
        system_type = system_type_for(
            {primary_acct: BankAccountType(100), backup_acct: BankAccountType(100)},
            programs,
        )
        system = make_generic_system(system_type, programs, UndoLoggingObject)

        class AbortDebitOnce(SchedulingPolicy):
            """Abort the primary debit the first time it can be aborted."""

            def __init__(self):
                self.base = EagerInformPolicy(seed=0)
                self.done = False

            def choose(self, enabled, owed, aborts):
                debit = [a for a in aborts if a.transaction == T("t", "debit")]
                if not self.done and debit:
                    self.done = True
                    return debit[0]
                return self.base.choose(enabled, owed, aborts)

        result = run_system(
            system, AbortDebitOnce(), system_type, max_steps=4000,
            resolve_deadlocks=True,
        )
        assert result.stats.quiescent
        behavior = result.behavior
        assert Abort(T("t", "debit")) in behavior
        # the fallback debit ran and the transfer committed
        from repro.core.actions import Commit

        assert Commit(T("t", "debit_backup")) in behavior
        assert Commit(T("t")) in behavior
        assert certify(behavior, system_type).certified


def test_effect_refuses_a_child_outside_the_program():
    automaton = ProgramTransaction(T("t"), seq(read(X, "a")))
    state = automaton.effect(automaton.initial_state(), Create(T("t")))
    for action in (RequestCreate(T("t", "b")), ReportAbort(T("t", "b"))):
        with pytest.raises(ValueError, match="not in signature"):
            automaton.effect(state, action)
