"""Tests for the static robustness analyzer (``repro.analysis.robustness``).

Covers the summary extractor, the sound may-conflict probe, the static
serialization graph, dangerous-structure detection and classification,
the validation bridge (both the directed policy and the exploratory
fallback), the program-scenario catalogue, the CLI — and the soundness
gate: across a 200-seed generated corpus, no statically-ROBUST program
set ever yields a cyclic serialization graph under bounded dynamic
exploration, and at least 90% of NOT-ROBUST verdicts are witnessed by a
concrete cyclic history.
"""

import json

import pytest

from repro.analysis.robustness import (
    FRACTURED_READ,
    GENERAL,
    LOST_UPDATE,
    NOT_ROBUST,
    ROBUST,
    WRITE_SKEW,
    ConflictProbe,
    DirectedPolicy,
    analyze_robustness,
    build_static_graph,
    explore_program_set,
    summarize_programs,
    validate_counterexample,
)
from repro.cli import main
from repro.core.history import ConflictCache
from repro.core.names import ROOT, ObjectName
from repro.core.rw_semantics import ReadOp, RWSpec, WriteOp
from repro.core.serialization_graph import CONFLICT, PRECEDES
from repro.obs.metrics import MetricsRegistry
from repro.scenarios import (
    PROGRAM_SCENARIOS,
    build_program_scenario,
    program_system_type,
)
from repro.sim.policies import SchedulingPolicy
from repro.sim.programs import (
    AccessCall,
    SubtransactionCall,
    par,
    read,
    seq,
    sub,
    write,
)
from repro.sim.workload import (
    CounterKind,
    WorkloadConfig,
    generate_program_set,
)
from repro.spec.builtin import CounterInc, CounterRead, CounterType

from conftest import T

X = ObjectName("x")
Y = ObjectName("y")


def rw_objects():
    return {X: RWSpec(initial=0), Y: RWSpec(initial=0)}


def two_template_root(left, right):
    return {ROOT: par(sub(left, "t1"), sub(right, "t2"))}


class TestSummaryExtractor:
    def test_footprints_and_read_only(self):
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(Y), read(X))
        )
        summary = summarize_programs(rw_objects(), programs)
        t1 = [a.name for a in summary.subtree_accesses(T("t1"))]
        assert t1 == [T("t1", "read_x"), T("t1", "write_x")]
        assert summary.accesses[T("t1", "read_x")].read_only
        assert not summary.accesses[T("t1", "write_x")].read_only
        assert summary.accesses[T("t2", "read_y")].obj == Y

    def test_sequential_order_gives_must_precede(self):
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(X), write(X, 2))
        )
        summary = summarize_programs(rw_objects(), programs)
        assert summary.must_precede(T("t1", "read_x"), T("t1", "write_x"))
        assert not summary.must_precede(T("t1", "write_x"), T("t1", "read_x"))
        # across parallel templates: no order either way
        assert not summary.must_precede(T("t1", "read_x"), T("t2", "read_x"))

    def test_parallel_program_gives_no_order(self):
        programs = {ROOT: par(sub(par(read(X), write(X, 1)), "t1"))}
        summary = summarize_programs(rw_objects(), programs)
        assert not summary.must_precede(T("t1", "read_x"), T("t1", "write_x"))

    def test_alternative_assumptions_and_trigger_order(self):
        program = seq(
            read(X, "primary"),
            AccessCall("fallback", X, ReadOp(), after_abort_of="primary"),
        )
        programs = {ROOT: par(sub(program, "t1"))}
        summary = summarize_programs(rw_objects(), programs)
        fallback = summary.accesses[T("t1", "fallback")]
        assert fallback.assumptions == frozenset({T("t1", "primary")})
        assert summary.accesses[T("t1", "primary")].assumptions == frozenset()
        # the alternative waits for its trigger even in a parallel program
        parallel = {
            ROOT: par(
                sub(
                    par(
                        read(X, "primary"),
                        AccessCall(
                            "fallback", X, ReadOp(), after_abort_of="primary"
                        ),
                    ),
                    "t1",
                )
            )
        }
        summary = summarize_programs(rw_objects(), parallel)
        assert summary.must_precede(T("t1", "primary"), T("t1", "fallback"))

    def test_alternative_is_inactive_without_its_assumed_abort(self):
        program = seq(
            read(X, "primary"),
            AccessCall("fallback", X, ReadOp(), after_abort_of="primary"),
        )
        programs = {ROOT: par(sub(program, "t1"))}
        summary = summarize_programs(rw_objects(), programs)
        fallback = summary.accesses[T("t1", "fallback")]
        assert not fallback.active_under(frozenset())
        assert fallback.active_under(frozenset({T("t1", "primary")}))
        # an access below an assumed-aborted subtree is never visible
        primary = summary.accesses[T("t1", "primary")]
        assert not primary.active_under(frozenset({T("t1", "primary")}))


class TestConflictProbe:
    def test_rw_spec_short_circuits_on_the_writer_marker(self):
        probe = ConflictProbe(
            RWSpec(initial=0), [ReadOp(), WriteOp(1)], ConflictCache()
        )
        assert probe.iff_writer
        assert not probe.may_conflict(ReadOp(), ReadOp())
        assert probe.may_conflict(ReadOp(), WriteOp(1))

    def test_counter_increments_proven_commuting(self):
        spec = CounterType()
        probe = ConflictProbe(
            spec, [CounterInc(1), CounterInc(2), CounterRead()], ConflictCache()
        )
        assert not probe.truncated
        assert not probe.may_conflict(CounterInc(1), CounterInc(2))
        assert probe.may_conflict(CounterRead(), CounterInc(1))
        assert not probe.may_conflict(CounterRead(), CounterRead())

    def test_truncation_degrades_to_conflicting(self):
        spec = CounterType()
        ops = [CounterInc(i) for i in range(1, 14)]  # > _MAX_PROBE_OPS
        probe = ConflictProbe(spec, ops, ConflictCache())
        assert probe.truncated
        assert probe.may_conflict(CounterInc(1), CounterInc(2))
        # ...but never for read-only pairs (the S002 guarantee)
        assert not probe.may_conflict(CounterRead(), CounterRead())

    def test_spec_without_apply_degrades_to_conflicting(self):
        class Opaque:
            pass

        probe = ConflictProbe(Opaque(), [CounterInc(1)], ConflictCache())
        assert probe.truncated
        assert probe.may_conflict(CounterInc(1), CounterInc(1))


class TestStaticGraph:
    def test_lost_update_edges(self):
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(X), write(X, 2))
        )
        summary = summarize_programs(rw_objects(), programs)
        probe = ConflictProbe(
            RWSpec(initial=0), [ReadOp(), WriteOp(1), WriteOp(2)], ConflictCache()
        )
        groups = build_static_graph(summary, {X: probe})
        root_group = next(g for g in groups if g.parent == ROOT)
        conflict = [e for e in root_group.edges if e.kind == CONFLICT]
        directions = {(e.source, e.target) for e in conflict}
        assert directions == {(T("t1"), T("t2")), (T("t2"), T("t1"))}
        # witnesses never pair two reads
        for edge in conflict:
            for witness in edge.witnesses:
                assert not (
                    summary.accesses[witness.source].read_only
                    and summary.accesses[witness.target].read_only
                )

    def test_sequential_root_forces_precedes(self):
        programs = {
            ROOT: seq(
                sub(seq(read(X), write(X, 1)), "t1"),
                sub(seq(read(X), write(X, 2)), "t2"),
            )
        }
        summary = summarize_programs(rw_objects(), programs)
        probe = ConflictProbe(
            RWSpec(initial=0), [ReadOp(), WriteOp(1), WriteOp(2)], ConflictCache()
        )
        groups = build_static_graph(summary, {X: probe})
        root_group = next(g for g in groups if g.parent == ROOT)
        # only forward edges exist, and the precedes edge is forced
        assert all(e.source == T("t1") and e.target == T("t2")
                   for e in root_group.edges)
        assert any(e.kind == PRECEDES and e.forced for e in root_group.edges)


class TestDetector:
    def test_lost_update_classified(self):
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(X), write(X, 2))
        )
        report = analyze_robustness(rw_objects(), programs, validate=False)
        assert report.verdict == NOT_ROBUST
        assert LOST_UPDATE in report.classifications
        (cx,) = [c for c in report.counterexamples if c.parent == ROOT]
        assert len(cx.edges) == 2
        assert cx.schedule.index(T("t2", "read_x")) < cx.schedule.index(
            T("t1", "write_x")
        )

    def test_write_skew_classified(self):
        programs = two_template_root(
            seq(read(X), write(Y, 1)), seq(read(Y), write(X, 1))
        )
        report = analyze_robustness(rw_objects(), programs, validate=False)
        assert WRITE_SKEW in report.classifications

    def test_fractured_read_classified(self):
        programs = two_template_root(
            seq(write(X, 1), write(Y, 1)), seq(read(X), read(Y))
        )
        report = analyze_robustness(rw_objects(), programs, validate=False)
        assert FRACTURED_READ in report.classifications

    def test_sequential_chain_is_robust(self):
        programs = {
            ROOT: seq(
                sub(seq(read(X), write(X, 1)), "t1"),
                sub(seq(read(X), write(X, 2)), "t2"),
            )
        }
        report = analyze_robustness(rw_objects(), programs, validate=False)
        assert report.verdict == ROBUST

    def test_single_object_blind_writes_are_robust(self):
        # two single blind writes on one object: the potential graph has
        # edges both ways, but any actual run commits one write first —
        # the constraint check kills the unrealizable two-cycle
        programs = two_template_root(seq(write(X, 1)), seq(write(X, 2)))
        report = analyze_robustness(rw_objects(), programs, validate=False)
        assert report.verdict == ROBUST

    def test_opposite_order_blind_writes_are_dangerous(self):
        # the program-level analogue of the 'blind-writes' behavior
        # scenario: opposite-order write pairs close an SG cycle (even
        # though the execution is serially correct — the sufficiency gap)
        programs = two_template_root(
            seq(write(X, 1), write(Y, 1)), seq(write(Y, 2), write(X, 2))
        )
        report = analyze_robustness(rw_objects(), programs, validate=True)
        assert report.verdict == NOT_ROBUST
        assert GENERAL in report.classifications
        assert report.witnessed

    def test_alternative_counterexample_carries_assumed_aborts(self):
        objects, programs, _ = build_program_scenario("fallback-retry")
        report = analyze_robustness(objects, programs, validate=False)
        assert report.verdict == NOT_ROBUST
        cx = next(c for c in report.counterexamples if c.assumed_aborts)
        assert T("t1", "direct") in cx.assumed_aborts

    def test_nested_group_detected(self):
        objects, programs, _ = build_program_scenario("nested-write-skew")
        report = analyze_robustness(objects, programs, validate=False)
        assert report.verdict == NOT_ROBUST
        assert any(c.parent == T("t1") for c in report.counterexamples)

    def test_metrics_are_emitted(self):
        registry = MetricsRegistry()
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(X), write(X, 2))
        )
        analyze_robustness(
            rw_objects(), programs, validate=True, metrics=registry
        )
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["robustness.analyses"] == 1
        assert counters["robustness.not_robust"] == 1
        assert counters["robustness.validation.directed"] >= 1


class TestValidationBridge:
    def test_directed_policy_realizes_the_lost_update(self):
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(X), write(X, 2))
        )
        report = analyze_robustness(rw_objects(), programs, validate=True)
        assert report.witnessed
        assert any(v.method == "directed" for v in report.validations)

    def test_fallback_retry_needs_the_assumed_abort(self):
        objects, programs, _ = build_program_scenario("fallback-retry")
        report = analyze_robustness(objects, programs, validate=True)
        assert report.witnessed

    def test_validate_false_runs_no_dynamic_checks(self):
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(X), write(X, 2))
        )
        report = analyze_robustness(rw_objects(), programs, validate=False)
        assert report.verdict == NOT_ROBUST
        assert report.validations == ()

    def test_robust_set_never_explores_into_a_cycle(self):
        objects, programs, _ = build_program_scenario("serial-chain")
        assert explore_program_set(objects, programs, seeds=4) is None

    def test_directed_policy_is_a_scheduling_policy(self):
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(X), write(X, 2))
        )
        report = analyze_robustness(rw_objects(), programs, validate=False)
        policy = DirectedPolicy(report.counterexamples[0])
        assert isinstance(policy, SchedulingPolicy)
        assert policy.choose([], [], []) is None


class TestCatalogue:
    @pytest.mark.parametrize("name", list(PROGRAM_SCENARIOS))
    def test_every_scenario_matches_its_expectation(self, name):
        objects, programs, expectation = build_program_scenario(name)
        report = analyze_robustness(
            objects, programs, validate=not expectation.robust
        )
        assert report.robust == expectation.robust, report.explain()
        if expectation.classification:
            assert expectation.classification in report.classifications
        if not expectation.robust:
            assert report.witnessed, report.explain()

    def test_program_system_type_registers_accesses(self):
        system_type = program_system_type("program-lost-update")
        assert system_type.is_access(T("t1", "read_x"))

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            build_program_scenario("no-such-scenario")


class TestReportOutput:
    def test_to_dict_round_trips_through_json(self):
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(X), write(X, 2))
        )
        report = analyze_robustness(rw_objects(), programs, validate=True)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["verdict"] == NOT_ROBUST
        assert payload["robust"] is False
        assert payload["counterexamples"][0]["classification"] == LOST_UPDATE
        assert payload["validations"][0]["witnessed"] is True

    def test_explain_mentions_the_schedule(self):
        programs = two_template_root(
            seq(read(X), write(X, 1)), seq(read(X), write(X, 2))
        )
        report = analyze_robustness(rw_objects(), programs, validate=False)
        text = report.explain()
        assert "directed schedule" in text
        assert "lost-update" in text


class TestSoundnessGate:
    """The acceptance bar: static ROBUST is dynamically safe, static
    NOT-ROBUST is dynamically witnessed."""

    def test_corpus_soundness_and_witness_rate(self):
        robust = not_robust = witnessed = 0
        for seed in range(200):
            config = WorkloadConfig(
                objects=2, top_level=3, max_calls=2, seed=seed
            )
            objects, programs = generate_program_set(config)
            report = analyze_robustness(objects, programs, validate=False)
            if report.robust:
                robust += 1
                cycle = explore_program_set(
                    objects, programs, seeds=3, max_steps=3000
                )
                assert cycle is None, (
                    f"seed {seed}: judged ROBUST but exploration found "
                    f"cycle {cycle}"
                )
            else:
                not_robust += 1
                validation = validate_counterexample(
                    objects, programs, report.counterexamples[0],
                    explore_seeds=6,
                )
                witnessed += validation.witnessed
        assert robust + not_robust == 200
        assert robust > 0 and not_robust > 0  # the corpus exercises both
        assert witnessed >= 0.9 * not_robust, (
            f"only {witnessed}/{not_robust} NOT-ROBUST verdicts witnessed"
        )

    def test_counter_kind_corpus_is_sound(self):
        for seed in range(40):
            config = WorkloadConfig(
                objects=2, top_level=3, max_calls=2,
                kind=CounterKind(), seed=seed,
            )
            objects, programs = generate_program_set(config)
            report = analyze_robustness(objects, programs, validate=False)
            if report.robust:
                assert explore_program_set(objects, programs, seeds=3) is None
            else:
                validation = validate_counterexample(
                    objects, programs, report.counterexamples[0],
                    explore_seeds=6,
                )
                assert validation.witnessed


class TestRobustnessCLI:
    def test_catalogue_run_exits_zero(self, capsys):
        assert main(["robustness", "--no-validate"]) == 0
        out = capsys.readouterr().out
        assert "serial-chain" in out
        assert "[OK]" in out and "UNEXPECTED" not in out

    def test_json_output_parses(self, capsys):
        assert main(["robustness", "--json", "--no-validate",
                     "program-lost-update"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        report = payload["scenarios"][0]["report"]
        assert report["verdict"] == NOT_ROBUST

    def test_validated_single_scenario(self, capsys):
        assert main(["robustness", "program-write-skew", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "write-skew" in out

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["robustness", "nope"]) == 2

    def test_generated_sets_are_reported(self, capsys):
        assert main(["robustness", "--no-validate", "--generated", "2",
                     "serial-chain"]) == 0
        out = capsys.readouterr().out
        assert "generated seed=0" in out
