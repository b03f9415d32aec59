"""Satellite coverage for :mod:`repro.report`: DOT validity and summaries.

The DOT checks are structural — balanced braces, one cluster per sibling
group, the documented CONFLICT vs PRECEDES edge styling — so a Graphviz
binary is not required.
"""

import re

from repro.core.serialization_graph import (
    CONFLICT,
    PRECEDES,
    SerializationGraph,
    SiblingEdge,
    build_serialization_graph,
)
from repro.report import behavior_summary, serialization_graph_to_dot

from conftest import T, lost_update_behavior, serial_two_txn_behavior


def mixed_edge_graph() -> SerializationGraph:
    """A two-group graph with both edge kinds (and a multi-kind edge)."""
    graph = SerializationGraph()
    graph.add_edge(SiblingEdge(T("T1"), T("T2"), CONFLICT))
    graph.add_edge(SiblingEdge(T("T1"), T("T2"), PRECEDES))
    graph.add_edge(SiblingEdge(T("T1", "a"), T("T1", "b"), CONFLICT))
    graph.add_node(T("T3"))
    return graph


class TestDotValidity:
    def test_braces_balanced_and_wrapped(self):
        behavior, system = lost_update_behavior()
        dot = serialization_graph_to_dot(
            build_serialization_graph(behavior, system)
        )
        assert dot.count("{") == dot.count("}")
        assert dot.startswith("digraph SG {")
        assert dot.rstrip().endswith("}")

    def test_one_cluster_per_sibling_group(self):
        graph = mixed_edge_graph()
        dot = serialization_graph_to_dot(graph)
        clusters = re.findall(r"subgraph cluster_(\d+)", dot)
        assert len(clusters) == len(graph.parents())
        # cluster indices are consecutive and labelled with the parent
        assert clusters == [str(i) for i in range(len(clusters))]
        for parent in graph.parents():
            assert f'label="children of {parent}";' in dot

    def test_edge_styles_distinguish_kinds(self):
        dot = serialization_graph_to_dot(mixed_edge_graph())
        conflict_lines = [
            line for line in dot.splitlines() if 'label="conflict"' in line
        ]
        precedes_lines = [
            line for line in dot.splitlines() if 'label="precedes"' in line
        ]
        assert conflict_lines and precedes_lines
        assert all('color="firebrick"' in line for line in conflict_lines)
        assert all(
            'color="steelblue"' in line and "style=dashed" in line
            for line in precedes_lines
        )

    def test_every_node_and_edge_rendered(self):
        graph = mixed_edge_graph()
        dot = serialization_graph_to_dot(graph)
        for node in graph.nodes():
            assert f'"{node}"' in dot
        for edge in graph.edges():
            assert f'"{edge.source}" -> "{edge.target}"' in dot
        # isolated nodes survive the rendering
        assert f'"{T("T3")}";' in dot

    def test_quoting_keeps_dotted_names_parseable(self):
        # transaction names contain dots — they must be quoted everywhere
        dot = serialization_graph_to_dot(mixed_edge_graph())
        for line in dot.splitlines():
            stripped = line.strip()
            if stripped.endswith('";') or " -> " in stripped:
                assert stripped.count('"') % 2 == 0


class TestBehaviorSummary:
    def test_line_content(self):
        behavior, system = serial_two_txn_behavior()
        lines = behavior_summary(behavior, system)
        assert len(lines) == 4
        assert lines[0].startswith("events: ")
        assert f"{len(behavior)} total" in lines[0]
        assert "committed: 4" in lines[1] and "aborted: 0" in lines[1]
        assert lines[2].startswith("accesses answered: ")
        assert lines[3] == f"objects: {len(system.object_names())}"

    def test_counts_aborts(self):
        behavior, system = lost_update_behavior()
        lines = behavior_summary(behavior, system)
        joined = "\n".join(lines)
        assert "transactions committed:" in joined
        assert "aborted:" in joined
