"""E13 — incremental certification: Pearce–Kelly vs naive per-edge DFS.

The online certifier's hot path is the acyclicity check after every new
sibling edge.  The naive lane re-runs a full DFS over the accumulated
graph after each feed that adds an edge — O(V + E) each, O(E·(V + E))
over a stream; it lives bench-side in ``_lanes.timed_online_lane``.
The engine itself (``OnlineCertifier``) maintains a Pearce–Kelly
topological order: an edge whose endpoints are already ordered
consistently costs O(1), and only out-of-order inserts search the
affected index region.

On a *growing history* — new transactions conflicting with ever more
committed predecessors, the append-mostly shape a monitoring deployment
sees — every insert is order-consistent, so the incremental engine does
constant work per edge while the naive engine's DFS grows with the
graph.  This benchmark times both lanes on identical streams, asserts
verdict equality, and writes ``BENCH_e13_incremental.json`` with the
speedups and the cost-driver counters.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _lanes import timed_online_lane
from _obs import write_bench_json
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.actions import (
    Commit,
    Create,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.correctness import certify
from repro.core.names import ROOT, Access, ObjectName, SystemType
from repro.core.rw_semantics import OK, RWSpec, WriteOp


def growing_history(top_level: int, objects: int = 2):
    """``top_level`` sequential writers over ``objects`` hot objects.

    Every pair of writers on the same object conflicts, and every
    committed writer precedes every later-created one, so the ROOT
    sibling group accumulates O(n²) edges — all consistent with the
    creation order (acyclic), the worst case for per-edge full DFS.
    """
    names = [ObjectName(f"X{i}") for i in range(objects)]
    system_type = SystemType({name: RWSpec(initial=0) for name in names})
    actions = []
    for i in range(top_level):
        txn = ROOT.child(f"t{i}")
        access = txn.child("w")
        system_type.register_access(
            access, Access(names[i % objects], WriteOp(i))
        )
        actions += [
            RequestCreate(txn),
            Create(txn),
            RequestCreate(access),
            Create(access),
            RequestCommit(access, OK),
            Commit(access),
            ReportCommit(access, OK),
            RequestCommit(txn, "done"),
            Commit(txn),
            ReportCommit(txn, "done"),
        ]
    return tuple(actions), system_type


CASES = pick([(32, 2), (64, 2), (96, 2)], [(8, 2), (12, 2)])


def run_comparison():
    rows = []
    report = {}
    for top_level, objects in CASES:
        behavior, system_type = growing_history(top_level, objects)
        incremental, inc_seconds, inc_counters = timed_online_lane(
            behavior, system_type, naive=False
        )
        naive, naive_seconds, naive_counters = timed_online_lane(
            behavior, system_type, naive=True
        )
        assert incremental == naive
        assert incremental == (True, False)  # the growing history is acyclic
        assert certify(behavior, system_type, construct_witness=False).certified
        speedup = naive_seconds / max(inc_seconds, 1e-9)
        label = f"top{top_level}_obj{objects}"
        report[label] = {
            "events": len(behavior),
            "edges": int(inc_counters.get("online.edges.conflict", 0))
            + int(inc_counters.get("online.edges.precedes", 0)),
            "incremental_seconds": inc_seconds,
            "naive_seconds": naive_seconds,
            "speedup": speedup,
            "incremental_counters": {
                name: value
                for name, value in inc_counters.items()
                if name.startswith("online.incremental.")
            },
            "naive_cycle_checks": naive_counters["naive.cycle_checks"],
        }
        rows.append(
            (
                label,
                len(behavior),
                report[label]["edges"],
                f"{inc_seconds * 1e3:.1f}",
                f"{naive_seconds * 1e3:.1f}",
                f"{speedup:.1f}x",
            )
        )
    write_bench_json("e13_incremental", report)
    return report, rows


@pytest.mark.benchmark(group="e13")
def test_e13_incremental_vs_naive(benchmark):
    report, rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        "E13: incremental (Pearce-Kelly) vs naive per-edge DFS, growing history",
        ["case", "events", "edges", "incremental (ms)", "naive (ms)", "speedup"],
        rows,
    )
    if not SMOKE:
        # the speedup must be real and must grow with the history
        speedups = [report[f"top{t}_obj{o}"]["speedup"] for t, o in CASES]
        assert speedups[-1] > 2.0, speedups
        assert speedups[-1] > speedups[0], speedups
    # on an append-only history every insert is order-consistent:
    # the affected region never contains a single node
    largest = report[f"top{CASES[-1][0]}_obj{CASES[-1][1]}"]
    assert largest["incremental_counters"]["online.incremental.affected_nodes"] == 0
