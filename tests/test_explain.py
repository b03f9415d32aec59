"""Tests for SG-cycle provenance (:mod:`repro.core.explain`).

The acceptance criterion: over 100+ randomly generated rejected
behaviors, every edge of the latched cycle must carry witnesses
consistent with the batch ``conflict_pairs``/``precedes_pairs``
relations — a conflict witness names an ordered operation pair that the
batch enumeration also collapses onto the same sibling edge, and a
precedes witness reproduces exactly the report/request positions the
batch relation uses.
"""

import json

import pytest

from repro import (
    HistoryIndex,
    certify,
    conflict_pairs,
    dump_case,
    explain_behavior,
    explain_cycle,
    explain_edge,
    precedes_pairs,
    serialization_graph_to_dot,
)
from repro.cli import main
from repro.report import explanation_report

from conftest import BehaviorBuilder, T, rw_system
from test_online import random_contended_behavior


def rejected_cases(wanted, max_seed=2000):
    """``wanted`` randomly generated behaviors whose certification
    latches an SG cycle, each paired with its certificate."""
    cases = []
    for seed in range(max_seed):
        behavior, system = random_contended_behavior(seed)
        certificate = certify(behavior, system, construct_witness=False)
        if not certificate.certified and certificate.cycle is not None:
            cases.append((behavior, system, certificate))
            if len(cases) >= wanted:
                return cases
    raise AssertionError(
        f"only {len(cases)} rejected seeds in the first {max_seed}"
    )


class TestWitnessConsistency:
    def test_hundred_rejected_seeds_have_consistent_witnesses(self):
        """Every cycle edge on 100+ rejected seeds is witnessed, and the
        witnesses agree with the batch conflict/precedes relations."""
        cases = rejected_cases(100)
        assert len(cases) >= 100
        for behavior, system, certificate in cases:
            index = HistoryIndex(behavior, system)
            explanation = explain_cycle(
                behavior, system, certificate.cycle, index=index
            )
            assert explanation.complete, certificate.cycle
            batch_conflicts = {
                (edge.source, edge.target)
                for edge in conflict_pairs(behavior, system)
            }
            batch_precedes = {
                (edge.source, edge.target)
                for edge in precedes_pairs(behavior)
            }
            parent, nodes = certificate.cycle
            assert explanation.parent == parent
            assert explanation.edge_pairs() == tuple(
                (nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)
            )
            for edge in explanation.edges:
                for witness in edge.conflicts:
                    # the witnessed pair collapses onto this very edge
                    # in the batch relation
                    assert (edge.source, edge.target) in batch_conflicts
                    assert edge.source.is_ancestor_of(witness.first)
                    assert edge.target.is_ancestor_of(witness.second)
                    assert witness.first_position <= witness.second_position
                    # and the named operations really fail to commute
                    assert index.conflict_cache.conflicts(
                        system.spec(witness.obj),
                        witness.first_op,
                        witness.first_value,
                        witness.second_op,
                        witness.second_value,
                    )
                for witness in edge.precedes:
                    assert (edge.source, edge.target) in batch_precedes
                    assert witness.report_position < witness.request_position

    def test_edges_without_witness_claims_match_graph(self):
        """The explanation only claims edge kinds the graph carries."""
        behavior, system, certificate = rejected_cases(1)[0]
        explanation = explain_cycle(behavior, system, certificate.cycle)
        graph_edges = {
            (edge.source, edge.target): set()
            for edge in certificate.graph.edges()
        }
        for edge in certificate.graph.edges():
            graph_edges[(edge.source, edge.target)].add(edge.kind)
        for edge in explanation.edges:
            assert set(edge.kinds) <= graph_edges[(edge.source, edge.target)]


class TestExplainAPI:
    def test_explain_behavior_none_on_certified(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.write(t, "w", "x", 1)
        b.commit(t)
        assert explain_behavior(b.build(), system) is None

    def test_explain_behavior_matches_explain_cycle(self):
        behavior, system, _ = rejected_cases(1)[0]
        result = explain_behavior(behavior, system)
        assert result is not None
        explanation, graph = result
        assert graph.find_cycle() is not None
        assert explanation.complete

    def test_explain_behavior_explains_the_cycle_certify_reports(self):
        for behavior, system, certificate in rejected_cases(30):
            explanation, graph = explain_behavior(behavior, system)
            cycle = (explanation.parent, list(explanation.nodes))
            assert cycle == graph.find_cycle() == certificate.cycle

    def test_max_witnesses_caps_per_object(self):
        behavior, system, certificate = rejected_cases(1)[0]
        capped = explain_cycle(
            behavior, system, certificate.cycle, max_witnesses=1
        )
        assert capped.complete
        full = explain_cycle(behavior, system, certificate.cycle)
        objects = {w.obj for edge in full.edges for w in edge.conflicts}
        for edge in capped.edges:
            per_object = {}
            for witness in edge.conflicts:
                per_object[witness.obj] = per_object.get(witness.obj, 0) + 1
            assert all(count <= 1 for count in per_object.values()), objects

    def test_non_siblings_rejected(self):
        behavior, system, _ = rejected_cases(1)[0]
        index = HistoryIndex(behavior, system)
        with pytest.raises(ValueError, match="not siblings"):
            explain_edge(index, system, T("t0"), T("t0", "r"))
        with pytest.raises(ValueError, match="not siblings"):
            explain_edge(index, system, T("t0"), T("t0"))

    def test_index_for_other_system_type_rejected(self):
        behavior, system, certificate = rejected_cases(1)[0]
        other = rw_system("o0", "o1")
        index = HistoryIndex(behavior, system)
        parent, nodes = certificate.cycle
        with pytest.raises(ValueError, match="different system type"):
            explain_edge(index, other, nodes[0], nodes[1])

    def test_to_dict_is_json_serializable(self):
        behavior, system, certificate = rejected_cases(1)[0]
        explanation = explain_cycle(behavior, system, certificate.cycle)
        blob = json.loads(json.dumps(explanation.to_dict(), default=str))
        assert blob["complete"] is True
        assert len(blob["edges"]) == len(explanation.edges)
        for edge in blob["edges"]:
            assert edge["conflicts"] or edge["precedes"]


class TestReportRendering:
    def test_explanation_report_names_operation_pairs(self):
        behavior, system, certificate = rejected_cases(1)[0]
        explanation = explain_cycle(behavior, system, certificate.cycle)
        text = explanation_report(explanation)
        assert "witnesses complete" in text
        assert "edge " in text and "conflict " in text

    def test_dot_annotates_cycle_edges(self):
        behavior, system, _ = rejected_cases(1)[0]
        explanation, graph = explain_behavior(behavior, system)
        plain = serialization_graph_to_dot(graph)
        annotated = serialization_graph_to_dot(graph, explanation)
        assert "penwidth=2.5" not in plain
        assert "penwidth=2.5" in annotated
        witness = explanation.edges[0].conflicts[0] if (
            explanation.edges[0].conflicts
        ) else None
        if witness is not None:
            assert str(witness.obj) in annotated


class TestExplainCLI:
    def write_case(self, tmp_path, behavior, system):
        path = tmp_path / "case.json"
        path.write_text(dump_case(behavior, system))
        return path

    def test_explain_rejected_case(self, tmp_path, capsys):
        behavior, system, _ = rejected_cases(1)[0]
        case = self.write_case(tmp_path, behavior, system)
        json_out = tmp_path / "explanation.json"
        dot_out = tmp_path / "annotated.dot"
        code = main(
            ["explain", str(case), "--json", str(json_out), "--dot", str(dot_out)]
        )
        output = capsys.readouterr().out
        assert code == 2
        assert "witnesses complete" in output
        blob = json.loads(json_out.read_text())
        assert blob["complete"] is True
        assert dot_out.read_text().startswith("digraph SG {")
        assert "penwidth=2.5" in dot_out.read_text()

    def test_explain_certified_case_exits_zero(self, tmp_path, capsys):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.write(t, "w", "x", 1)
        b.commit(t)
        case = self.write_case(tmp_path, b.build(), system)
        code = main(["explain", str(case)])
        output = capsys.readouterr().out
        assert code == 0
        assert "acyclic" in output.lower() or "no cycle" in output.lower()
