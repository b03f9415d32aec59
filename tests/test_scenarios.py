"""Tests for the canonical scenario library."""

import pytest

from repro.cli import main
from repro.core.correctness import certify
from repro.core.oracle import oracle_serially_correct
from repro.scenarios import SCENARIOS, build_scenario, scenario_names
from repro.serial.simple_db import check_simple_behavior


class TestScenarioLibrary:
    @pytest.mark.parametrize("name", scenario_names())
    def test_scenarios_are_simple_behaviors(self, name):
        behavior, system_type, _ = build_scenario(name)
        assert check_simple_behavior(behavior, system_type) == []

    @pytest.mark.parametrize("name", scenario_names())
    def test_certifier_verdict_matches_expectation(self, name):
        behavior, system_type, expectation = build_scenario(name)
        certificate = certify(behavior, system_type)
        assert certificate.certified == expectation.certified, name
        if certificate.certified:
            assert not certificate.witness_problems

    @pytest.mark.parametrize("name", scenario_names())
    def test_ground_truth_matches_expectation(self, name):
        behavior, system_type, expectation = build_scenario(name)
        verdict = oracle_serially_correct(behavior, system_type, max_orders=5000)
        assert bool(verdict) == expectation.serially_correct, name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            build_scenario("nonexistent")

    def test_soundness_of_expectations(self):
        # a certified scenario must always be serially correct
        for name, (_, expectation) in SCENARIOS.items():
            if expectation.certified:
                assert expectation.serially_correct, name


class TestScenariosCLI:
    def test_all_scenarios_ok(self, capsys):
        code = main(["scenarios"])
        output = capsys.readouterr().out
        assert code == 0
        assert "UNEXPECTED" not in output
        assert output.count("[OK]") == len(SCENARIOS)

    def test_single_scenario(self, capsys):
        code = main(["scenarios", "blind-writes"])
        output = capsys.readouterr().out
        assert code == 0
        assert "blind-writes" in output
        assert "[OK]" in output
