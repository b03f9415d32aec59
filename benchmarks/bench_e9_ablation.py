"""E9 — ablations of the construction's design choices.

(a) **Drop the precedes edges.**  The paper adds them for external
consistency: an order sorted from the conflict-only graph can reverse
sequentially-issued siblings.  We measure how often, on workloads with
a sequential root, a conflict-only topological order fails the
Serializability Theorem hypotheses (it must *sometimes* fail, while the
full-graph order never does).

(b) **Inform delivery order.**  Moss' lock inheritance wants informs in
leaf-to-root order; the controller may deliver them arbitrarily.  We
compare eager vs random delivery: correctness must hold either way (the
theorems don't assume an order), while random delivery costs blocking.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.correctness import certify
from repro.core.events import StatusIndex, serial_projection
from repro.core.names import ROOT
from repro.core.serialization_graph import (
    SerializationGraph,
    conflict_pairs,
    precedes_pairs,
)
from repro.core.view import serializability_theorem_applies
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy, RandomPolicy
from repro.sim.programs import TransactionProgram
from repro.sim.workload import WorkloadConfig, generate_workload


def sequential_workload(seed: int):
    system_type, programs = generate_workload(
        WorkloadConfig(seed=seed, top_level=4, objects=2, max_calls=2,
                       sequential_probability=1.0)
    )
    root = programs[ROOT]
    programs = {ROOT: TransactionProgram(root.calls, sequential=True)}
    return system_type, programs


def build_order(serial, system_type, include_precedes: bool):
    index = StatusIndex(serial)
    graph = SerializationGraph()
    for transaction in index.create_requested:
        if index.is_visible(transaction.parent, ROOT):
            graph.add_node(transaction)
    for edge in conflict_pairs(serial, system_type, index):
        graph.add_edge(edge)
    if include_precedes:
        for edge in precedes_pairs(serial, index):
            graph.add_edge(edge)
    if not graph.is_acyclic():
        return None
    return graph.to_sibling_order()


def ablation_precedes(seeds):
    full_fail = stripped_fail = total = 0
    for seed in seeds:
        system_type, programs = sequential_workload(seed)
        system = make_generic_system(system_type, programs, MossRWLockingObject)
        result = run_system(
            system, EagerInformPolicy(seed=seed), system_type,
            max_steps=6000, resolve_deadlocks=True,
        )
        serial = serial_projection(result.behavior)
        total += 1
        full = build_order(serial, system_type, include_precedes=True)
        assert full is not None
        if serializability_theorem_applies(serial, ROOT, full, system_type):
            full_fail += 1
        stripped = build_order(serial, system_type, include_precedes=False)
        if stripped is None or serializability_theorem_applies(
            serial, ROOT, stripped, system_type
        ):
            stripped_fail += 1
    return total, full_fail, stripped_fail


def ablation_informs(seeds):
    rows = []
    for label, make_policy in [
        ("eager informs", lambda seed: EagerInformPolicy(seed=seed)),
        ("random informs", lambda seed: RandomPolicy(seed)),
    ]:
        committed = blocked = violations = 0
        for seed in seeds:
            system_type, programs = generate_workload(
                WorkloadConfig(seed=seed, top_level=6, objects=3, max_depth=2)
            )
            system = make_generic_system(system_type, programs, MossRWLockingObject)
            result = run_system(
                system, make_policy(seed), system_type, max_steps=8000,
                collect_blocking=True, resolve_deadlocks=True,
            )
            certificate = certify(result.behavior, system_type,
                                  construct_witness=False)
            if not certificate.certified:
                violations += 1
            committed += result.stats.top_level_committed
            blocked += result.stats.blocked_access_steps
        rows.append((label, len(list(seeds)), committed, blocked, violations))
    return rows


@pytest.mark.benchmark(group="e9")
def test_e9a_precedes_edges_matter(benchmark):
    total, full_fail, stripped_fail = benchmark.pedantic(
        ablation_precedes, args=(range(pick(12, 4)),), rounds=1, iterations=1
    )
    print_table(
        "E9a: sequential workloads — does the derived order satisfy Theorem 2?",
        ["graph", "runs", "order fails"],
        [
            ("conflict + precedes (paper)", total, full_fail),
            ("conflict only (ablated)", total, stripped_fail),
        ],
    )
    assert full_fail == 0, "the paper's graph must always yield a good order"
    if not SMOKE:  # needs the full seed sweep to observe a broken order
        assert stripped_fail > 0, "dropping precedes edges should break some orders"


@pytest.mark.benchmark(group="e9")
def test_e9b_inform_delivery_order(benchmark):
    rows = benchmark.pedantic(
        ablation_informs, args=(range(pick(5, 2)),), rounds=1, iterations=1
    )
    print_table(
        "E9b: Moss locking under eager vs arbitrary inform delivery",
        ["policy", "runs", "committed", "blocked steps", "violations"],
        rows,
    )
    assert all(row[-1] == 0 for row in rows), "correctness must not depend on informs"
