"""Tests for the composed serial system and behavior enumeration."""

import pytest

from repro.core.actions import Commit, RequestCommit
from repro.core.correctness import certify, validate_serial_behavior
from repro.core.events import serial_projection
from repro.core.names import ROOT, ObjectName, TransactionName
from repro.core.rw_semantics import ReadOp, RWSpec
from repro.serial.system import (
    enumerate_serial_behaviors,
    make_serial_system,
    serial_object_for,
)
from repro.sim.programs import (
    TransactionProgram,
    par,
    read,
    seq,
    sub,
    system_type_for,
    write,
)
from repro.spec.builtin import CounterInc, CounterType

from conftest import T


X = ObjectName("x")


def tiny_system(sequential=False):
    t1 = seq(write(X, 1, "w"), result="one")
    t2 = seq(read(X, "r"), result="two")
    root = TransactionProgram((sub(t1, "t1"), sub(t2, "t2")), sequential=sequential)
    programs = {ROOT: root}
    system_type = system_type_for({X: RWSpec(initial=0)}, programs)
    return system_type, programs


class TestSerialObjectFactory:
    def test_rw_spec_builds_rw_object(self):
        from repro.serial.rw_object import SerialRWObject

        system_type, _ = tiny_system()
        assert isinstance(serial_object_for(X, system_type), SerialRWObject)

    def test_datatype_builds_typed_object(self):
        from repro.serial.typed_object import SerialTypedObject

        programs = {ROOT: TransactionProgram(())}
        system_type = system_type_for({X: CounterType()}, programs)
        assert isinstance(serial_object_for(X, system_type), SerialTypedObject)

    def test_unknown_spec_rejected(self):
        from repro.core.names import SystemType

        system_type = SystemType({X: object()})
        with pytest.raises(TypeError):
            serial_object_for(X, system_type)


class TestEnumeration:
    def test_all_enumerated_behaviors_validate(self):
        system_type, programs = tiny_system()
        system = make_serial_system(system_type, programs)
        count = 0
        for behavior in enumerate_serial_behaviors(system, max_steps=10,
                                                   max_behaviors=400):
            count += 1
            assert validate_serial_behavior(behavior, system_type) == [], behavior
        assert count > 10

    def test_complete_behaviors_run_both_transactions(self):
        system_type, programs = tiny_system()
        system = make_serial_system(system_type, programs)
        complete = [
            behavior
            for behavior in enumerate_serial_behaviors(
                system, max_steps=40, max_behaviors=30_000
            )
            if Commit(T("t1")) in behavior and Commit(T("t2")) in behavior
        ]
        assert complete
        # in every complete serial behavior, siblings ran without overlap:
        # the read either sees 0 (t2 first) or 1 (t1 first)
        values = set()
        for behavior in complete:
            for action in behavior:
                if (
                    isinstance(action, RequestCommit)
                    and action.transaction == T("t2", "r")
                ):
                    values.add(action.value)
        assert values <= {0, 1}
        assert len(values) == 2  # both serial orders occur in the enumeration

    def test_serial_behaviors_are_certified(self):
        system_type, programs = tiny_system()
        system = make_serial_system(system_type, programs)
        checked = 0
        for behavior in enumerate_serial_behaviors(
            system, max_steps=24, max_behaviors=3000
        ):
            if len(behavior) % 6 == 0:  # sample some prefixes
                certificate = certify(behavior, system_type)
                assert certificate.certified, certificate.explain()
                checked += 1
        assert checked > 5

    def test_enumeration_yields_prefix_closed_set(self):
        system_type, programs = tiny_system()
        system = make_serial_system(system_type, programs)
        behaviors = set(
            enumerate_serial_behaviors(system, max_steps=8, max_behaviors=2000)
        )
        for behavior in behaviors:
            if behavior:
                assert behavior[:-1] in behaviors
