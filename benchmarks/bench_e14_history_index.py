"""E14 — shared history index: indexed vs naive batch certification.

Batch certification used to rebuild what it needed phase by phase:
every projection was a fresh full scan, ``conflict(beta)`` compared all
O(k²) access pairs per object, ``precedes(beta)`` compared every report
with every ``REQUEST_CREATE`` in the log, and visibility re-walked
ancestor chains per query.  The :class:`repro.core.history.HistoryIndex`
materializes all of it in one O(n) pass, and the indexed lane threads
that single index through every phase; its conflict scan skips
read/read pairs, so a read-heavy history drops from O(k²) to O(k·w)
specification consultations with ``w`` writers per object, and its
precedes relation compares a report only with its siblings' requests.

This benchmark certifies identical growing read-heavy histories on the
indexed lane and on the naive baseline (both rebuilt in ``_lanes.py``;
``certify`` itself runs the columnar engine of E17), asserts the
verdicts agree, and writes ``BENCH_e14_history_index.json`` with the
speedups and the indexed lane's ``history.index.*`` cost counters.
Each lane runs five times per size; the baseline keeps every run's
seconds beside the medians the speedup is taken from.  The
target: ≥5x at the largest size (n ≈ 5k events).  Most of the gap is
the precedes grouping, which ``precedes_pairs`` does on every index
(see EXPERIMENTS.md, E14).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _lanes import interleaved_runs, timed_object_lane
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
from repro.core.names import ROOT, Access, ObjectName, SystemType
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp

#: one write per this many accesses — the read-heavy regime the
#: writer-boundary enumeration is built for
WRITE_EVERY = 50


def read_heavy_history(top_level: int, accesses: int = 20, objects: int = 2):
    """``top_level`` sequential transactions, ``accesses`` accesses each.

    Accesses round-robin over ``objects`` hot read/write objects; every
    ``WRITE_EVERY``-th access (globally) is a write, the rest are reads
    returning the last committed value, so the behavior is serial,
    ARV-correct, and certifiable.  Event count is
    ``top_level * (5 * accesses + 5)``.
    """
    names = [ObjectName(f"X{i}") for i in range(objects)]
    system_type = SystemType({name: RWSpec(initial=0) for name in names})
    state = {name: 0 for name in names}
    actions = []
    sequence = 0
    for i in range(top_level):
        txn = ROOT.child(f"t{i}")
        actions += [RequestCreate(txn), Create(txn)]
        for a in range(accesses):
            obj = names[sequence % objects]
            if sequence % WRITE_EVERY == WRITE_EVERY - 1:
                op, value = WriteOp(sequence), OK
                state[obj] = sequence
            else:
                op, value = ReadOp(), state[obj]
            sequence += 1
            access = txn.child(f"a{a}")
            system_type.register_access(access, Access(obj, op))
            actions += [
                RequestCreate(access),
                Create(access),
                RequestCommit(access, value),
                Commit(access),
                ReportCommit(access, value),
            ]
        actions += [
            RequestCommit(txn, "done"),
            Commit(txn),
            ReportCommit(txn, "done"),
        ]
    return tuple(actions), system_type


CASES = pick([12, 24, 48], [2, 3])


def run_comparison():
    rows = []
    report = {}
    for top_level in CASES:
        behavior, system_type = read_heavy_history(top_level)
        (
            (indexed, idx_seconds, idx_runs, idx_counters),
            (naive, naive_seconds, naive_runs, _),
        ) = interleaved_runs(
            lambda: timed_object_lane(behavior, system_type, indexed=True),
            lambda: timed_object_lane(behavior, system_type, indexed=False),
        )
        # serial + ARV-correct by construction: certified, no cycle
        assert indexed == naive == (True, None)
        speedup = naive_seconds / max(idx_seconds, 1e-9)
        label = f"top{top_level}"
        report[label] = {
            "events": len(behavior),
            "indexed_seconds": idx_seconds,
            "indexed_runs": idx_runs,
            "naive_seconds": naive_seconds,
            "naive_runs": naive_runs,
            "speedup": speedup,
            "index_counters": {
                name: value
                for name, value in idx_counters.items()
                if name.startswith("history.index.")
            },
        }
        rows.append(
            (
                label,
                len(behavior),
                int(idx_counters["history.index.conflict.pairs_checked"]),
                int(idx_counters["history.index.conflict.pairs_skipped_read_runs"]),
                f"{idx_seconds * 1e3:.1f}",
                f"{naive_seconds * 1e3:.1f}",
                f"{speedup:.1f}x",
            )
        )
    write_bench_json("e14_history_index", report)
    return report, rows


@pytest.mark.benchmark(group="e14")
def test_e14_indexed_vs_naive_certification(benchmark):
    report, rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        "E14: shared-history-index vs naive certification, read-heavy histories",
        ["case", "events", "pairs checked", "read-runs skipped", "indexed (ms)", "naive (ms)", "speedup"],
        rows,
    )
    largest = report[f"top{CASES[-1]}"]
    counters = largest["index_counters"]
    # the read-run skip must dominate on a read-heavy history
    assert (
        counters["history.index.conflict.pairs_skipped_read_runs"]
        > counters["history.index.conflict.pairs_checked"]
    )
    assert counters["history.index.builds"] == 1
    if not SMOKE:
        speedups = [report[f"top{t}"]["speedup"] for t in CASES]
        assert largest["events"] >= 5000
        assert speedups[-1] >= 5.0, speedups
        assert speedups[-1] > speedups[0], speedups
