"""Tests for ``repro.analysis``: lint rules, spec checker, drift, CLI.

The known-bad corpus lives in ``tests/analysis_fixtures/``; every rule
is exercised against it, and the whole engine is asserted *clean* on
``src/repro`` (the acceptance bar for ``make lint``).
"""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.drift import (
    check_all_drift,
    check_benchmark_drift,
    check_metrics_drift,
    documented_metric_names,
    source_metric_names,
)
from repro.analysis.linter import Finding, LintContext, lint_paths
from repro.analysis.rules import all_rules, rule_by_id
from repro.analysis.spec_check import (
    SpecDomain,
    builtin_spec_domains,
    check_all_builtin_specs,
    check_spec,
)
from repro.cli import main
from repro.spec.builtin import CounterInc, CounterRead

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "analysis_fixtures"
REPO_ROOT = TESTS_DIR.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


def lint_fixtures(*rule_ids, tests_root=TESTS_DIR):
    """Lint the fixture corpus with the given rules (default tests root)."""
    rules = [rule_by_id(rule_id) for rule_id in rule_ids]
    return lint_paths(FIXTURES, rules, tests_root=tests_root)


def _load_broken_specs():
    spec = importlib.util.spec_from_file_location(
        "analysis_fixtures.broken_spec", FIXTURES / "broken_spec.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLintFramework:
    def test_engine_is_clean_on_the_library_itself(self):
        findings = lint_paths(SRC_ROOT, all_rules(), tests_root=TESTS_DIR)
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_unparsable_module_reports_e000(self):
        findings = lint_fixtures("R002")
        e000 = [f for f in findings if f.rule == "E000"]
        assert len(e000) == 1
        assert "bad_syntax.py" in e000[0].path
        assert "cannot parse" in e000[0].message

    def test_per_line_suppression(self):
        findings = lint_fixtures("R002")
        suppressed_line = next(
            number
            for number, text in enumerate(
                (FIXTURES / "bad_hygiene.py").read_text().splitlines(), start=1
            )
            if "allow-R002" in text
        )
        assert not any(
            f.line == suppressed_line and "bad_hygiene" in f.path
            for f in findings
        )

    def test_skip_file_opts_a_module_out(self, tmp_path):
        bad = tmp_path / "skipped.py"
        bad.write_text('# lint: skip-file\nprint("never linted")\n')
        assert lint_paths(bad, [rule_by_id("R002")]) == []

    def test_finding_rendering(self):
        finding = Finding("R999", "pkg/mod.py", 7, "something is off")
        assert str(finding) == "pkg/mod.py:7: R999 something is off"
        assert finding.to_dict() == {
            "rule": "R999",
            "path": "pkg/mod.py",
            "line": 7,
            "message": "something is off",
        }

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            rule_by_id("R042")


class TestR001ABFlags:
    def test_dead_flag_is_flagged_and_forwarding_is_not(self):
        findings = [
            f
            for f in lint_fixtures("R001")
            if f.rule == "R001" and "bad_flags" in f.path
        ]
        assert len(findings) == 1
        assert "certify_things" in findings[0].message
        assert "never consulted" in findings[0].message

    def test_missing_test_coverage_is_flagged(self, tmp_path):
        # An empty tests root: neither value of the flag is exercised.
        findings = [
            f
            for f in lint_fixtures("R001", tests_root=tmp_path)
            if "not exercised" in f.message
        ]
        assert findings, "expected a coverage finding with no tests"
        assert any(
            "compaction=False and compaction=True" in f.message for f in findings
        )

    def test_real_suite_covers_both_values_of_both_flags(self, tmp_path):
        context = LintContext(root=SRC_ROOT, tests_root=TESTS_DIR)
        coverage = context.test_flag_values(("compaction", "validate"))
        assert coverage["compaction"] == {True, False}
        assert coverage["validate"] == {True, False}
        # a flag whose values only flow through a parametrized fixture:
        # the scanner must resolve fixture/parametrize bindings
        (tmp_path / "test_fixture_flag.py").write_text(
            "import pytest\n"
            "@pytest.fixture(params=[True, False])\n"
            "def engine(request):\n"
            "    return request.param\n"
            "def test_it(engine):\n"
            "    run(compaction=engine)\n"
        )
        bound = LintContext(root=SRC_ROOT, tests_root=tmp_path)
        assert bound.test_flag_values(("compaction",))["compaction"] == {True, False}

    def test_robustness_validate_flag_is_an_ab_flag(self):
        # the static-only vs validated lanes of analyze_robustness are
        # under the same both-ways discipline as the engine flags
        from repro.analysis.rules.ab_flags import AB_FLAGS

        assert AB_FLAGS == ("compaction", "validate")
        context = LintContext(root=SRC_ROOT, tests_root=TESTS_DIR)
        coverage = context.test_flag_values(("validate",))
        assert coverage["validate"] == {True, False}


class TestR005ProgramRegistry:
    def test_hand_built_registry_is_flagged(self):
        findings = [
            f
            for f in lint_fixtures("R005")
            if f.rule == "R005" and "bad_programs" in f.path
        ]
        messages = [f.message for f in findings]
        assert sum("register_access" in m for m in messages) == 1
        assert sum("never routes" in m for m in messages) == 1

    def test_program_building_modules_are_clean(self):
        # the modules the rule exists for: generators and the catalogue
        rule = rule_by_id("R005")
        for module in ("sim/workload.py", "scenarios.py", "sim/programs.py"):
            findings = lint_paths(
                SRC_ROOT / module, [rule], tests_root=TESTS_DIR
            )
            assert findings == [], "\n".join(str(f) for f in findings)

    def test_module_with_registry_helper_passes(self, tmp_path):
        good = tmp_path / "good_programs.py"
        good.write_text(
            "from repro.sim.programs import seq, read, system_type_for\n"
            "def build(x):\n"
            "    program = seq(read(x))\n"
            "    return system_type_for({}, {}), program\n"
        )
        assert lint_paths(good, [rule_by_id("R005")]) == []


class TestR002Hygiene:
    def test_expected_findings(self):
        findings = [
            f
            for f in lint_fixtures("R002")
            if f.rule == "R002" and "bad_hygiene" in f.path
        ]
        messages = [f.message for f in findings]
        assert sum("print()" in m for m in messages) == 1
        assert sum("bare 'except:'" in m for m in messages) == 1
        assert sum("mutable default" in m for m in messages) == 3

    def test_cli_modules_may_print(self, tmp_path):
        cli = tmp_path / "cli.py"
        cli.write_text('print("user-facing output")\n')
        assert lint_paths(cli, [rule_by_id("R002")]) == []


class TestR003Quadratic:
    def test_expected_findings_and_suppressions(self):
        findings = [
            f
            for f in lint_fixtures("R003")
            if f.rule == "R003" and "bad_quadratic" in f.path
        ]
        messages = [f.message for f in findings]
        assert sum("membership test" in m for m in messages) == 2
        assert sum(".index()" in m for m in messages) == 1

    def test_unindexed_projection_in_a_loop_is_flagged(self):
        findings = [
            f
            for f in lint_fixtures("R003")
            if f.rule == "R003" and "bad_projection" in f.path
        ]
        assert all("projection without an index" in f.message for f in findings)
        source = (FIXTURES / "core" / "bad_projection.py").read_text()
        lines = source.splitlines()
        flagged = {lines[f.line - 1].strip() for f in findings}
        assert flagged == {
            "if project_transaction(",  # the old per-transaction witness check
            "projections.append(project_object(behavior, obj, system_type))"
            "  # -> R003",
            "out.append(project_transaction(behavior, transaction, index=None))"
            "  # -> R003",
        }

    def test_only_hot_path_modules_are_checked(self, tmp_path):
        cold = tmp_path / "util" / "scan.py"
        cold.parent.mkdir()
        cold.write_text(
            textwrap.dedent(
                """
                def f(events, names):
                    out = []
                    for event in events:
                        if event in list(names):
                            out.append(event)
                    return out
                """
            )
        )
        assert lint_paths(cold, [rule_by_id("R003")]) == []
        hot = tmp_path / "core" / "scan.py"
        hot.parent.mkdir()
        hot.write_text(cold.read_text())
        assert len(lint_paths(hot, [rule_by_id("R003")])) == 1


class TestR004Automaton:
    def test_expected_findings(self):
        findings = [
            f
            for f in lint_fixtures("R004")
            if f.rule == "R004" and "bad_automaton" in f.path
        ]
        messages = [f.message for f in findings]
        assert sum("without checking" in m for m in messages) == 1
        assert sum("mutates parameter" in m for m in messages) == 2

    def test_well_behaved_and_abstract_handlers_pass(self):
        source = (FIXTURES / "bad_automaton.py").read_text().splitlines()
        findings = [
            f
            for f in lint_fixtures("R004")
            if f.rule == "R004" and "bad_automaton" in f.path
        ]
        bad_region = source.index("class WellBehavedAutomaton:") + 1
        assert all(f.line <= bad_region for f in findings)


class TestSpecSoundness:
    def test_every_builtin_spec_certifies(self):
        reports = check_all_builtin_specs()
        names = {report.spec for report in reports}
        assert {"register", "counter", "set", "bank-account", "queue",
                "map", "rw"} <= names
        for report in reports:
            assert report.ok, [str(p) for p in report.problems]
            assert report.pairs > 0 and report.prefixes > 0

    def test_read_read_fast_path_assumption_holds_for_every_spec(self):
        # the engines' read/read skip never consults the spec for
        # read/read pairs; a spec violating the assumption surfaces as
        # 'read_only_conflict'/'read_only_claim'.
        for domain in builtin_spec_domains():
            report = check_spec(domain)
            assert not any(
                p.kind in ("read_only_conflict", "read_only_claim")
                for p in report.problems
            )

    def test_asymmetric_spec_is_rejected_as_s001(self):
        broken = _load_broken_specs()
        report = check_spec(
            SpecDomain(
                "asym",
                broken.AsymmetricSpec(initial=0),
                (CounterInc(1), CounterInc(0), CounterRead()),
            )
        )
        assert not report.ok
        assert {p.rule for p in report.problems} == {"S001"}
        assert all(p.kind == "symmetry" for p in report.problems)

    def test_lying_read_only_spec_is_rejected_as_s002(self):
        broken = _load_broken_specs()
        report = check_spec(
            SpecDomain(
                "lying",
                broken.LyingReadOnlySpec(initial=0),
                (CounterInc(1), CounterInc(0), CounterRead()),
            )
        )
        kinds = {p.kind for p in report.problems}
        assert "read_only_claim" in kinds
        assert "read_only_conflict" in kinds
        assert any(p.rule == "S002" for p in report.problems)

    def test_over_commuting_spec_is_rejected_as_s003(self):
        broken = _load_broken_specs()
        report = check_spec(
            SpecDomain(
                "over",
                broken.OverCommutingSpec(initial=0),
                (CounterInc(1), CounterInc(0), CounterRead()),
            )
        )
        assert not report.ok
        assert {p.rule for p in report.problems} == {"S003"}

    def test_report_serialization(self):
        report = check_spec(builtin_spec_domains()[0])
        payload = report.to_dict()
        assert payload["spec"] == "register"
        assert payload["ok"] is True
        assert payload["problems"] == []


class TestDrift:
    def test_repo_is_in_sync(self):
        problems = check_all_drift(REPO_ROOT)
        assert problems == [], [str(p) for p in problems]

    def test_undocumented_counter_is_detected(self, tmp_path):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True)
        (src / "mod.py").write_text(
            textwrap.dedent(
                """
                def run(metrics, fast):
                    metrics.inc("fake.counter")
                    metrics.inc("fast.path" if fast else "slow.path")
                    metrics.observe(f"span.{run.__name__}", 1.0)
                """
            )
        )
        doc = tmp_path / "docs" / "OBSERVABILITY.md"
        doc.parent.mkdir()
        doc.write_text(
            "## Metric names emitted by the instrumented library\n\n"
            "- `fast.path`, `slow.path`, `span.<name>`, `ghost.metric`.\n"
        )
        problems = check_metrics_drift(src, doc)
        details = [p.detail for p in problems]
        assert any("fake.counter" in d and "emitted" in d for d in details)
        assert any("ghost.metric" in d and "never emitted" in d for d in details)
        assert all(p.rule == "D001" for p in problems)
        assert len(problems) == 2  # fast/slow/span.<name> all match up

    def test_benchmark_references_both_directions(self, tmp_path):
        experiments = tmp_path / "EXPERIMENTS.md"
        experiments.write_text(
            "E1 is reproduced by `benchmarks/bench_present.py` and "
            "E2 by `benchmarks/bench_missing.py`.\n"
        )
        benchmarks = tmp_path / "benchmarks"
        benchmarks.mkdir()
        (benchmarks / "bench_present.py").write_text("")
        (benchmarks / "bench_orphan.py").write_text("")
        problems = check_benchmark_drift(experiments, benchmarks)
        kinds = {(p.rule, p.kind) for p in problems}
        assert kinds == {("D002", "missing_script"), ("D002", "orphan_script")}

    def test_documented_placeholder_tokens_become_prefixes(self, tmp_path):
        doc = tmp_path / "OBS.md"
        doc.write_text(
            "## Metric names emitted by the instrumented library\n"
            "`driver.action.<Kind>` and `exact.name` but not "
            "`repro.module.path`.\n\n## Next section\n`ignored.name`\n"
        )
        exact, prefixes = documented_metric_names(doc)
        assert exact == {"exact.name"}
        assert prefixes == {"driver.action."}

    def test_source_conditional_and_fstring_names(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            'def f(m, ok, k):\n'
            '    m.inc("a.b" if ok else "a.c")\n'
            '    m.set_gauge(f"dyn.{k}", 1)\n'
        )
        exact, prefixes = source_metric_names(tmp_path)
        assert exact == {"a.b", "a.c"}
        assert prefixes == {"dyn."}


class TestLintCLI:
    def test_clean_repo_exits_zero_with_json(self, capsys):
        code = main(["lint", "--json", "--root", str(REPO_ROOT)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["problems"] == 0
        assert len(payload["spec_reports"]) == len(builtin_spec_domains())

    def test_fixture_corpus_exits_one_with_findings(self, capsys):
        code = main(
            [
                "lint",
                "--json",
                "--rules",
                "R001,R002,R003,R004",
                "--root",
                str(REPO_ROOT),
                str(FIXTURES),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        rules = {finding["rule"] for finding in payload["findings"]}
        assert {"R001", "R002", "R003", "R004", "E000"} <= rules
        assert payload["spec_reports"] == []  # engines not selected
        assert payload["drift"] == []

    def test_text_mode_summarises(self, capsys):
        code = main(["lint", "--rules", "spec", "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0
        assert "specs certified" in out
        assert "repro lint: clean" in out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        code = main(["lint", "--rules", "R999"])
        assert code == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_path_after_rules_is_treated_as_target(self, capsys):
        # argparse binds the trailing path to --rules; the CLI must
        # reclaim it as a lint target, per the documented invocation.
        bad = FIXTURES / "bad_hygiene.py"
        code = main(
            ["lint", "--json", "--rules", "R002", str(bad),
             "--root", str(REPO_ROOT)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert {f["rule"] for f in payload["findings"]} == {"R002"}
        assert all(f["path"].endswith("bad_hygiene.py")
                   for f in payload["findings"])
