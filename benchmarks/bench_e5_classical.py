"""E5 — the nested construction generalises the classical theory.

On depth-1 (flat) behaviors, the top-level conflict edges of the nested
serialization graph must coincide exactly with the classical conflict
graph, and cyclicity must agree; strict-2PL histories must always be
certified.  Expected shape: 100% agreement.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import pick
from _tables import print_table

from repro.classical.histories import history_to_nested_behavior, random_history
from repro.classical.sgt import classical_edges, is_conflict_serializable
from repro.classical.two_phase_locking import FlatScript, run_strict_2pl
from repro.core.correctness import certify
from repro.core.graph import Digraph
from repro.core.names import ROOT
from repro.core.serialization_graph import build_serialization_graph


def top_level_conflict_graph(behavior, system_type):
    graph = build_serialization_graph(behavior, system_type)
    digraph = Digraph()
    edges = set()
    for edge in graph.edges():
        if edge.kind == "conflict" and edge.parent == ROOT:
            digraph.add_edge(edge.source, edge.target)
            edges.add((edge.source.path[0], edge.target.path[0]))
    return edges, digraph


HISTORIES = pick(25, 3)


def run_sweep():
    rows = []
    # random (possibly non-serializable) histories: edge + cyclicity agreement
    for txns, objs, ops in [(3, 2, 3), (4, 2, 3), (5, 3, 4)]:
        edge_agree = cycle_agree = total = 0
        for seed in range(HISTORIES):
            history = random_history(
                txns, objs, ops, seed=seed, write_probability=0.6
            )
            behavior, system_type = history_to_nested_behavior(history)
            edges, digraph = top_level_conflict_graph(behavior, system_type)
            total += 1
            if edges == classical_edges(history):
                edge_agree += 1
            if digraph.is_acyclic() == is_conflict_serializable(history):
                cycle_agree += 1
        rows.append((f"random {txns}x{ops}", total, edge_agree, cycle_agree, "-"))
    # 2PL output: always serializable, must always be certified
    for txns, objs, ops in [(4, 3, 3), (6, 3, 4)]:
        certified = total = 0
        rng = random.Random(0)
        for seed in range(HISTORIES):
            scripts = [
                FlatScript.random(f"T{i}", objects=objs, length=ops, rng=rng)
                for i in range(txns)
            ]
            history, _ = run_strict_2pl(scripts, seed=seed)
            behavior, system_type = history_to_nested_behavior(history)
            total += 1
            if certify(behavior, system_type, construct_witness=False).certified:
                certified += 1
        rows.append((f"2PL {txns}x{ops}", total, "-", "-", certified))
    return rows


@pytest.mark.benchmark(group="e5")
def test_e5_classical_agreement(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        "E5: agreement with the classical theory on flat histories",
        ["workload", "histories", "edges agree", "cycles agree", "2PL certified"],
        rows,
    )
    for row in rows:
        if row[2] != "-":
            assert row[2] == row[1] and row[3] == row[1]
        if row[4] != "-":
            assert row[4] == row[1]
