"""Tests for the report renderers and the command-line interface."""

import json
from pathlib import Path

import pytest

from repro import (
    build_serialization_graph,
    certificate_report,
    certify,
    serialization_graph_to_dot,
)
from repro.cli import main
from repro.report import behavior_summary

from conftest import lost_update_behavior, serial_two_txn_behavior


class TestReport:
    def test_certificate_report_certified(self):
        behavior, system = serial_two_txn_behavior()
        certificate = certify(behavior, system)
        text = certificate_report(certificate, behavior, system, witness_preview=5)
        assert "CERTIFIED" in text
        assert "conflict edge" in text
        assert "witness serial behavior" in text

    def test_certificate_report_rejected(self):
        behavior, system = lost_update_behavior()
        certificate = certify(behavior, system)
        text = certificate_report(certificate, behavior, system)
        assert "NOT certified" in text
        assert "cycle" in text

    def test_behavior_summary(self):
        behavior, system = serial_two_txn_behavior()
        lines = behavior_summary(behavior, system)
        assert any("committed: 4" in line for line in lines)

    def test_dot_output(self):
        behavior, system = lost_update_behavior()
        graph = build_serialization_graph(behavior, system)
        dot = serialization_graph_to_dot(graph)
        assert dot.startswith("digraph SG {")
        assert dot.rstrip().endswith("}")
        assert "conflict" in dot
        assert "children of T0" in dot


class TestCLI:
    def test_demo_certifies(self, capsys):
        code = main(["demo", "--seed", "1", "--transactions", "3"])
        output = capsys.readouterr().out
        assert code == 0
        assert "CERTIFIED" in output

    def test_demo_undo(self, capsys):
        code = main(["demo", "--algorithm", "undo", "--seed", "2"])
        assert code == 0
        assert "CERTIFIED" in capsys.readouterr().out

    def test_record_then_audit(self, tmp_path, capsys):
        case = tmp_path / "run.json"
        code = main(["record", "--seed", "4", "-o", str(case)])
        assert code == 0
        assert case.exists()
        blob = json.loads(case.read_text())
        assert blob["format"] == "repro-case-v1"
        capsys.readouterr()
        code = main(["audit", str(case)])
        output = capsys.readouterr().out
        assert code == 0
        assert "CERTIFIED" in output

    def test_audit_writes_dot(self, tmp_path, capsys):
        case = tmp_path / "run.json"
        dot = tmp_path / "graph.dot"
        main(["record", "--seed", "4", "-o", str(case)])
        capsys.readouterr()
        code = main(["audit", str(case), "--dot", str(dot)])
        assert code == 0
        assert dot.read_text().startswith("digraph SG {")

    @pytest.mark.parametrize(
        "option",
        [
            ["--dot", "g.dot"],
            ["--oracle"],
            ["--witness", "5"],
            ["--oracle-budget", "3"],
            ["--oracle", "--oracle-budget", "3"],
        ],
        ids=["dot", "oracle", "witness", "oracle-budget", "oracle-and-budget"],
    )
    @pytest.mark.parametrize(
        "mode", [["run.json", "--engine", "online"], ["run.json", "run.json"]],
        ids=["online", "corpus"],
    )
    def test_audit_refuses_options_it_cannot_honour(
        self, tmp_path, monkeypatch, capsys, mode, option
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["record", "--seed", "1", "-o", "run.json"]) == 0
        capsys.readouterr()
        assert main(["audit", *mode, *option]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert option[0] in captured.err
        assert not (tmp_path / "g.dot").exists()

    def test_audit_refuses_an_oracle_budget_without_the_oracle(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["record", "--seed", "1", "-o", "run.json"]) == 0
        capsys.readouterr()
        assert main(["audit", "run.json", "--oracle-budget", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "--oracle-budget" in captured.err

    def test_audit_rejects_tampered_case(self, tmp_path, capsys):
        """Corrupt a recorded read value: the audit must fail with exit 2."""
        case = tmp_path / "run.json"
        main(["record", "--seed", "6", "--transactions", "4", "-o", str(case)])
        capsys.readouterr()
        blob = json.loads(case.read_text())
        # find a committed read response and corrupt its value
        reads = {
            tuple(entry["transaction"])
            for entry in blob["system_type"]["accesses"]
            if entry["operation"]["op"] == "ReadOp"
        }
        tampered = False
        for event in blob["behavior"]:
            if (
                event["kind"] in ("request_commit", "report_commit")
                and tuple(event["transaction"]) in reads
            ):
                event["value"] = {"t": "scalar", "v": 987654}
                tampered = True
        assert tampered, "expected at least one read in the recorded run"
        case.write_text(json.dumps(blob))
        code = main(["audit", str(case), "--oracle"])
        output = capsys.readouterr().out
        assert code == 2
        assert "NOT certified" in output

    def test_abort_rate_option(self, capsys):
        code = main(["demo", "--seed", "3", "--abort-rate", "0.2"])
        assert code == 0
        assert "CERTIFIED" in capsys.readouterr().out


class TestOnlineEngine:
    def test_audit_online_engine(self, tmp_path, capsys):
        code = main(["record", "--seed", "4", "-o", str(tmp_path / "r.json")])
        assert code == 0
        capsys.readouterr()
        code = main(["audit", str(tmp_path / "r.json"), "--engine", "online"])
        output = capsys.readouterr().out
        assert code == 0
        assert "online engine" in output

    def test_audit_online_engine_rejects(self, tmp_path, capsys):
        import json

        case = tmp_path / "r.json"
        main(["record", "--seed", "6", "--transactions", "4", "-o", str(case)])
        capsys.readouterr()
        blob = json.loads(case.read_text())
        reads = {
            tuple(entry["transaction"])
            for entry in blob["system_type"]["accesses"]
            if entry["operation"]["op"] == "ReadOp"
        }
        for event in blob["behavior"]:
            if (
                event["kind"] in ("request_commit", "report_commit")
                and tuple(event["transaction"]) in reads
            ):
                event["value"] = {"t": "scalar", "v": 987654}
        case.write_text(json.dumps(blob))
        code = main(["audit", str(case), "--engine", "online"])
        output = capsys.readouterr().out
        assert code == 2
        assert "NOT certified" in output

    def test_demo_tree_option(self, capsys):
        code = main(["demo", "--seed", "1", "--transactions", "3", "--tree"])
        output = capsys.readouterr().out
        assert code == 0
        assert "transaction tree:" in output
        assert "committed" in output
