"""Tests for JSON serialization of behaviors and system types."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    InformAbort,
    InformCommit,
    ObjectName,
    dump_case,
    load_case,
)
from repro.core.serde import (
    behavior_from_json,
    behavior_to_json,
    system_type_from_json,
    system_type_to_json,
)

from conftest import T, rw_system, serial_two_txn_behavior


class TestBehaviorRoundTrip:
    def test_serial_behavior(self):
        behavior, _ = serial_two_txn_behavior()
        assert behavior_from_json(behavior_to_json(behavior)) == behavior

    def test_informs(self):
        behavior = (
            InformCommit(ObjectName("x"), T("t")),
            InformAbort(ObjectName("y"), T("t", "u")),
        )
        assert behavior_from_json(behavior_to_json(behavior)) == behavior

    def test_values_varieties(self):
        from repro import RequestCommit, ReportCommit

        behavior = (
            RequestCommit(T("a"), None),
            RequestCommit(T("b"), 3.5),
            RequestCommit(T("c"), True),
            RequestCommit(T("d"), ("tu", ("ple", 1))),
            RequestCommit(T("e"), frozenset({1, 2})),
            ReportCommit(T("a"), None),
        )
        assert behavior_from_json(behavior_to_json(behavior)) == behavior

    def test_unencodable_value_rejected(self):
        from repro import RequestCommit

        class Weird:
            __hash__ = object.__hash__

        with pytest.raises(TypeError):
            behavior_to_json((RequestCommit(T("a"), Weird()),))


class TestSystemTypeRoundTrip:
    def test_rw_system(self):
        behavior, system = serial_two_txn_behavior()
        restored = system_type_from_json(system_type_to_json(system))
        assert restored.object_names() == system.object_names()
        assert restored.all_accesses() == system.all_accesses()
        assert restored.spec(ObjectName("x")).initial == 0

    def test_all_builtin_types(self):
        from repro import Access, SystemType
        from repro.spec.builtin import (
            BalanceRead,
            BankAccountType,
            CounterInc,
            CounterType,
            Dequeue,
            Enqueue,
            QueueType,
            RegisterType,
            RegWrite,
            SetInsert,
            SetType,
        )

        system = SystemType(
            {
                ObjectName("reg"): RegisterType(initial=0),
                ObjectName("ctr"): CounterType(initial=5),
                ObjectName("set"): SetType(initial=frozenset({1})),
                ObjectName("acct"): BankAccountType(initial=100),
                ObjectName("q"): QueueType(initial=("a",)),
            }
        )
        system.register_access(T("t", "a"), Access(ObjectName("reg"), RegWrite(3)))
        system.register_access(T("t", "b"), Access(ObjectName("ctr"), CounterInc(2)))
        system.register_access(T("t", "c"), Access(ObjectName("set"), SetInsert(7)))
        system.register_access(T("t", "d"), Access(ObjectName("acct"), BalanceRead()))
        system.register_access(T("t", "e"), Access(ObjectName("q"), Enqueue("z")))
        system.register_access(T("t", "f"), Access(ObjectName("q"), Dequeue()))
        restored = system_type_from_json(system_type_to_json(system))
        assert restored.all_accesses() == system.all_accesses()
        assert restored.spec(ObjectName("set")).initial == frozenset({1})
        assert restored.spec(ObjectName("q")).initial == ("a",)

    def test_unknown_spec_rejected(self):
        from repro import SystemType

        system = SystemType({ObjectName("x"): object()})
        with pytest.raises(TypeError):
            system_type_to_json(system)


class TestCaseRoundTrip:
    def test_dump_and_load(self):
        behavior, system = serial_two_txn_behavior()
        text = dump_case(behavior, system)
        restored_behavior, restored_system = load_case(text)
        assert restored_behavior == behavior
        assert restored_system.all_accesses() == system.all_accesses()

    def test_certification_survives_round_trip(self):
        from repro import certify

        behavior, system = serial_two_txn_behavior()
        restored_behavior, restored_system = load_case(dump_case(behavior, system))
        assert certify(restored_behavior, restored_system).certified

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            load_case('{"format": "nope"}')

    def test_driver_run_round_trip(self):
        from repro import (
            EagerInformPolicy,
            UndoLoggingObject,
            CounterKind,
            WorkloadConfig,
            certify,
            generate_workload,
            make_generic_system,
            run_system,
        )

        system_type, programs = generate_workload(
            WorkloadConfig(seed=9, top_level=3, objects=2, kind=CounterKind())
        )
        system = make_generic_system(system_type, programs, UndoLoggingObject)
        result = run_system(system, EagerInformPolicy(seed=9), system_type)
        behavior, restored = load_case(dump_case(result.behavior, system_type))
        assert behavior == result.behavior
        assert certify(behavior, restored).certified


class TestPropertyRoundTrip:
    def test_random_simple_behaviors_round_trip(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from test_core_properties import random_simple_behavior

        @settings(max_examples=30, deadline=None)
        @given(st.integers(0, 100_000))
        def inner(seed):
            behavior, system = random_simple_behavior(seed)
            restored_behavior, restored_system = load_case(
                dump_case(behavior, system)
            )
            assert restored_behavior == behavior
            assert restored_system.all_accesses() == system.all_accesses()
            from repro import certify

            original = certify(behavior, system, construct_witness=False)
            replayed = certify(
                restored_behavior, restored_system, construct_witness=False
            )
            assert original.certified == replayed.certified

        inner()


class TestMapTypeRoundTrip:
    def test_map_spec_and_ops(self):
        from repro import Access, SystemType
        from repro.spec.builtin import MapGet, MapPut, MapRemove, MapType

        system = SystemType({ObjectName("m"): MapType(initial={"a": 1})})
        system.register_access(T("t", "p"), Access(ObjectName("m"), MapPut("b", 2)))
        system.register_access(T("t", "g"), Access(ObjectName("m"), MapGet("a")))
        system.register_access(T("t", "r"), Access(ObjectName("m"), MapRemove("a")))
        restored = system_type_from_json(system_type_to_json(system))
        assert restored.all_accesses() == system.all_accesses()
        assert restored.spec(ObjectName("m")).result_of((), MapGet("a")) == 1


def serial_case_blob():
    """The ``serial`` scenario as a decoded case JSON object."""
    behavior, system = serial_two_txn_behavior()
    return json.loads(dump_case(behavior, system))


def first_valued_event(blob):
    return next(i for i, event in enumerate(blob["behavior"]) if "value" in event)


def set_behavior(blob, value):
    blob["behavior"] = value


def set_event(blob, key, value, index=0):
    blob["behavior"][index][key] = value


#: (label, mutation of the case blob, the event index the error names or None)
MALFORMED = [
    ("behavior is an object", lambda b: set_behavior(b, {}), None),
    ("behavior is a string", lambda b: set_behavior(b, "events"), None),
    ("path is a string", lambda b: set_event(b, "transaction", "t1"), 0),
    ("path is a number", lambda b: set_event(b, "transaction", 5), 0),
    ("path component is a number", lambda b: set_event(b, "transaction", [1]), 0),
    ("path component is a list", lambda b: set_event(b, "transaction", [["t"]]), 0),
    ("path is missing", lambda b: b["behavior"][0].pop("transaction"), 0),
    ("event is a list", lambda b: b["behavior"].__setitem__(2, ["create", ["t"]]), 2),
    ("event is a number", lambda b: b["behavior"].__setitem__(1, 7), 1),
    ("unknown kind", lambda b: set_event(b, "kind", "launch"), 0),
    ("kind is a list", lambda b: set_event(b, "kind", ["create"]), 0),
    (
        "scalar value is a list",
        lambda b: set_event(
            b, "value", {"t": "scalar", "v": [1, 2]}, first_valued_event(b)
        ),
        "valued",
    ),
    (
        "scalar value is an object",
        lambda b: set_event(
            b, "value", {"t": "scalar", "v": {"a": 1}}, first_valued_event(b)
        ),
        "valued",
    ),
    (
        "tuple value is not a list",
        lambda b: set_event(b, "value", {"t": "tuple", "v": 3}, first_valued_event(b)),
        "valued",
    ),
    (
        "value is untagged",
        lambda b: set_event(b, "value", 3, first_valued_event(b)),
        "valued",
    ),
    (
        "value is missing",
        lambda b: b["behavior"][first_valued_event(b)].pop("value"),
        "valued",
    ),
    (
        "unknown op argument",
        lambda b: b["system_type"]["accesses"][0]["operation"]["args"].__setitem__(
            "bogus", {"t": "scalar", "v": 1}
        ),
        None,
    ),
    (
        "missing op argument",
        lambda b: b["system_type"]["accesses"][0]["operation"]["args"].clear(),
        None,
    ),
    (
        "unknown operation",
        lambda b: b["system_type"]["accesses"][0]["operation"].__setitem__(
            "op", ["ReadOp"]
        ),
        None,
    ),
    (
        "access names an unknown object",
        lambda b: b["system_type"]["accesses"][0].__setitem__("object", "nowhere"),
        None,
    ),
    (
        "unknown spec",
        lambda b: next(iter(b["system_type"]["objects"].values())).__setitem__(
            "spec", "Oracle"
        ),
        None,
    ),
    ("system type is a list", lambda b: b.__setitem__("system_type", []), None),
]


class TestMalformedCases:
    @pytest.mark.parametrize(
        "mutate, index",
        [pytest.param(mutate, index, id=label) for label, mutate, index in MALFORMED],
    )
    def test_malformed_shapes_raise_value_error(self, mutate, index):
        blob = serial_case_blob()
        if index == "valued":
            index = first_valued_event(blob)
        mutate(blob)
        with pytest.raises(ValueError) as excinfo:
            load_case(json.dumps(blob))
        if index is not None:
            assert str(excinfo.value).startswith(f"event {index}: ")

    @pytest.mark.parametrize("text", ["[]", "3", '"case"', "null"])
    def test_non_object_case_raises_value_error(self, text):
        with pytest.raises(ValueError):
            load_case(text)

    def test_audit_reports_a_malformed_case_on_one_line(self, tmp_path):
        blob = serial_case_blob()
        set_event(blob, "transaction", 5, 3)
        case = tmp_path / "bad.json"
        case.write_text(json.dumps(blob))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "audit", str(case)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert "is not a valid repro case: event 3: " in lines[0]
        assert result.stdout == ""


class TestSharedNames:
    def test_each_path_decodes_to_one_object(self):
        behavior, system = load_case(dump_case(*serial_two_txn_behavior()))
        by_path = {name.path: name for name in system.all_accesses()}
        for action in behavior:
            name = by_path.setdefault(action.transaction.path, action.transaction)
            assert name is action.transaction, action
        # the actions reached every access and more (the non-access names)
        accesses = system.all_accesses()
        assert {
            action.transaction.path
            for action in behavior
            if system.is_access(action.transaction)
        } == {name.path for name in accesses}
        assert len(by_path) > len(accesses)

    def test_loads_do_not_share_names(self):
        text = dump_case(*serial_two_txn_behavior())
        first, _ = load_case(text)
        second, _ = load_case(text)
        assert first == second
        assert first[1].transaction is not second[1].transaction
