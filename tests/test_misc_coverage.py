"""Edge-case coverage: CLI errors, report corners, API utilities."""

import json

import pytest

from repro.cli import main
from repro.core.correctness import certify
from repro.report import certificate_report, serialization_graph_to_dot
from repro.spec.builtin import CounterInc, CounterRead, CounterType, OK
from repro.spec.commutativity import (
    exhaustive_prefixes,
    random_legal_prefixes,
    verify_commutativity_table,
)

from conftest import lost_update_behavior, serial_two_txn_behavior


class TestCLIErrors:
    def test_audit_missing_file(self, capsys):
        code = main(["audit", "/nonexistent/run.json"])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_audit_invalid_json_structure(self, tmp_path, capsys):
        case = tmp_path / "bad.json"
        case.write_text(json.dumps({"format": "repro-case-v1"}))
        code = main(["audit", str(case)])
        assert code == 1
        assert "not a valid repro case" in capsys.readouterr().err

    def test_audit_wrong_format_marker(self, tmp_path, capsys):
        case = tmp_path / "bad.json"
        case.write_text(json.dumps({"format": "other"}))
        assert main(["audit", str(case)]) == 1

    def test_demo_witness_preview(self, capsys):
        code = main(["demo", "--seed", "0", "--witness", "5"])
        output = capsys.readouterr().out
        assert code == 0
        assert "witness serial behavior" in output


class TestReportCorners:
    def test_report_without_behavior_context(self):
        behavior, system = serial_two_txn_behavior()
        certificate = certify(behavior, system)
        text = certificate_report(certificate)
        assert "CERTIFIED" in text
        assert "events:" not in text  # no summary without context

    def test_dot_of_cyclic_graph(self):
        behavior, system = lost_update_behavior()
        certificate = certify(behavior, system)
        dot = serialization_graph_to_dot(certificate.graph)
        # both directions of the cycle are rendered
        assert dot.count("conflict") >= 2

    def test_report_on_malformed_input_certificate(self):
        from repro.core.actions import Create
        from conftest import T, rw_system

        system = rw_system("x")
        certificate = certify(
            (Create(T("ghost")), Create(T("ghost"))), system, validate_input=True
        )
        text = certificate_report(certificate)
        assert "malformed input" in text


class TestCommutativityUtilities:
    def test_verify_commutativity_table_clean(self):
        counter = CounterType()
        prefixes = exhaustive_prefixes(counter, [CounterInc(1)], 2)
        pairs = [(CounterInc(1), OK), (CounterInc(2), OK)]
        assert verify_commutativity_table(counter, pairs, prefixes) == []

    def test_verify_commutativity_table_finds_violation(self):
        class LyingCounter(CounterType):
            def commutes_backward(self, op1, v1, op2, v2):
                return True  # wrong: claims reads commute with increments

        counter = LyingCounter()
        prefixes = exhaustive_prefixes(counter, [CounterInc(1), CounterRead()], 2)
        pairs = [(CounterInc(1), OK), (CounterRead(), 0)]
        problems = verify_commutativity_table(counter, pairs, prefixes)
        assert problems
        assert problems[0].claimed_commutes

    def test_random_legal_prefixes_are_legal(self):
        import random

        counter = CounterType()
        prefixes = random_legal_prefixes(
            counter, [CounterInc(1), CounterRead()], count=10, max_length=4,
            rng=random.Random(0),
        )
        assert () in prefixes
        for prefix in prefixes:
            assert counter.is_legal(prefix)


class TestGraphCorners:
    def test_empty_serialization_graph(self):
        from repro.core.serialization_graph import SerializationGraph

        graph = SerializationGraph()
        assert graph.is_acyclic()
        assert graph.find_cycle() is None
        assert graph.nodes() == ()
        assert list(graph.edges()) == []
        order = graph.to_sibling_order()
        assert order.pairs() == set()

    def test_certify_behavior_with_only_informs(self):
        from repro.core.actions import InformCommit
        from repro.core.names import ObjectName
        from conftest import T, rw_system

        system = rw_system("x")
        behavior = (InformCommit(ObjectName("x"), T("t")),)
        certificate = certify(behavior, system)
        assert certificate.certified  # serial projection is empty
