"""Tests for certify(validate_input=True) and the simple-system composition."""

from repro.automata.base import replay_schedule
from repro.core.actions import Commit, Create, RequestCreate
from repro.core.correctness import certify
from repro.core.events import serial_projection
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.serial.simple_db import make_simple_system
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.workload import WorkloadConfig, generate_workload

from conftest import T, rw_system, serial_two_txn_behavior


class TestValidateInput:
    def test_well_formed_input_passes(self):
        behavior, system = serial_two_txn_behavior()
        certificate = certify(behavior, system, validate_input=True)
        assert certificate.certified
        assert certificate.input_problems == []

    def test_malformed_input_diagnosed(self):
        system = rw_system("x")
        behavior = (Create(T("ghost")), Commit(T("ghost")))
        certificate = certify(behavior, system, validate_input=True)
        assert not certificate.certified
        assert certificate.input_problems
        assert "malformed input" in certificate.explain()

    def test_default_skips_validation(self):
        # without the flag, the certifier judges whatever it is given
        system = rw_system("x")
        behavior = (Create(T("ghost")),)
        certificate = certify(behavior, system)
        assert certificate.input_problems == []


class TestSimpleSystem:
    def test_generic_behavior_is_simple_behavior(self):
        """The implements-relation of the paper's architecture, checked by
        replay: a generic run's serial projection is a schedule of the
        simple system (with the same transaction automata)."""
        system_type, programs = generate_workload(
            WorkloadConfig(seed=2, top_level=3, objects=2)
        )
        generic = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            generic, EagerInformPolicy(seed=2), system_type, resolve_deadlocks=True
        )
        simple = make_simple_system(system_type, programs)
        serial = serial_projection(result.behavior)
        execution = replay_schedule(simple, serial)
        assert len(execution.actions) == len(serial)

    def test_simple_system_allows_wild_values(self):
        """The simple database itself accepts arbitrary access values —
        it models structure, not correctness."""
        from repro.core.actions import RequestCommit
        from repro.core.names import ROOT, ObjectName
        from repro.core.rw_semantics import RWSpec
        from repro.sim.programs import TransactionProgram, read, seq, sub, system_type_for

        X = ObjectName("x")
        programs = {
            ROOT: TransactionProgram((sub(seq(read(X, "r")), "t"),), sequential=False)
        }
        system_type = system_type_for({X: RWSpec(initial=0)}, programs)
        simple = make_simple_system(system_type, programs)
        access = T("t", "r")
        schedule = [
            RequestCreate(T("t")),
            Create(T("t")),
            RequestCreate(access),
            Create(access),
            RequestCommit(access, "utter nonsense"),
        ]
        execution = replay_schedule(simple, schedule)
        assert execution.final_state["simple-database"].responded == {access}
