"""E17 — columnar engine: dense-int struct-of-arrays vs the history index.

The PR 3 history index (E14) removed the repeated full scans, but the
representation it walks is still one Python object per event: conflict
enumeration hashes ``TransactionName`` tuples, visibility chases
attribute chains, and every phase pays dict lookups keyed by structured
values.  ``repro.core.columnar`` changes the representation — names,
objects and operation classes intern to dense ints at append time, the
history is parallel ``array('q')`` columns, visibility/orphan sets are
bitsets, and read/write objects resolve their whole conflict relation
in one linear bitset sweep (``conflicts_iff_writer``) instead of a pair
loop.

This benchmark certifies identical growing read-heavy histories on the
indexed object lane (E14's history-index lane, rebuilt in
``_lanes.py``) and with ``certify``, which runs the
columnar engine.  ``certify`` is fed by a *lazy generator*, so the 50k+
event corpus is never materialized as an object list for it.  The
benchmark asserts the verdicts agree and writes
``BENCH_e17_columnar.json``; each lane runs five times per size, and
the baseline keeps every run's seconds beside the medians the speedup
is taken from.  The acceptance bar, checked here
in full mode and re-checked against the committed baseline in CI:
≥10x over the indexed path at ≥50,000 events.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _lanes import interleaved_runs, timed_object_lane
from _obs import write_bench_json
from _smoke import SMOKE, pick
from _tables import print_table

from repro import (
    OK,
    Access,
    Commit,
    Create,
    MetricsRegistry,
    ObjectName,
    ReadOp,
    ReportCommit,
    RequestCommit,
    RequestCreate,
    ROOT,
    RWSpec,
    SystemType,
    WriteOp,
    certify,
)

#: one write per this many accesses — the read-heavy regime both the
#: writer-boundary skip (indexed) and the bitset sweep (columnar) target
WRITE_EVERY = 50


def read_heavy_system(objects: int = 2) -> SystemType:
    names = [ObjectName(f"X{i}") for i in range(objects)]
    return SystemType({name: RWSpec(initial=0) for name in names})


def stream_read_heavy_history(
    system_type: SystemType, top_level: int, accesses: int = 20
):
    """Lazily yield the E14 read-heavy history, one action at a time.

    ``top_level`` sequential transactions of ``accesses`` accesses each,
    round-robin over the system's objects, one write per ``WRITE_EVERY``
    accesses globally — serial, ARV-correct, certifiable.  Event count
    is ``top_level * (5 * accesses + 5)``; nothing is ever materialized,
    which is exactly the regime the columnar append path is built for.
    Accesses are registered on first touch, so streaming the generator
    grows the system type as a real event source would.
    """
    names = list(system_type.object_names())
    state = {name: 0 for name in names}
    sequence = 0
    for i in range(top_level):
        txn = ROOT.child(f"t{i}")
        yield RequestCreate(txn)
        yield Create(txn)
        for a in range(accesses):
            obj = names[sequence % len(names)]
            if sequence % WRITE_EVERY == WRITE_EVERY - 1:
                op, value = WriteOp(sequence), OK
                state[obj] = sequence
            else:
                op, value = ReadOp(), state[obj]
            sequence += 1
            access = txn.child(f"a{a}")
            system_type.register_access(access, Access(obj, op))
            yield RequestCreate(access)
            yield Create(access)
            yield RequestCommit(access, value)
            yield Commit(access)
            yield ReportCommit(access, value)
        yield RequestCommit(txn, "done")
        yield Commit(txn)
        yield ReportCommit(txn, "done")


def timed_columnar(system_type, top_level):
    """Time the columnar lane end to end, generation included.

    The event stream is produced lazily *inside* the timed region —
    the columnar engine's cost includes folding every action into the
    int columns, so this is the honest streaming figure (and it still
    has to clear the 10x bar against an indexed lane whose behavior
    tuple was materialized for free, outside its timer).
    """
    registry = MetricsRegistry()
    start = time.perf_counter()
    certificate = certify(
        stream_read_heavy_history(system_type, top_level),
        system_type,
        construct_witness=False,
        metrics=registry,
    )
    seconds = time.perf_counter() - start
    return certificate, seconds, registry.snapshot()["counters"]


CASES = pick([120, 240, 480], [2, 3])


def run_comparison():
    rows = []
    report = {}
    for top_level in CASES:
        system_type = read_heavy_system()
        # materialize once for the indexed lane only — outside its timer
        behavior = tuple(stream_read_heavy_history(system_type, top_level))
        (
            (indexed, idx_seconds, idx_runs, _),
            (columnar, col_seconds, col_runs, col_counters),
        ) = interleaved_runs(
            lambda: timed_object_lane(behavior, system_type, indexed=True),
            lambda: timed_columnar(system_type, top_level),
        )
        # serial + ARV-correct by construction: certified, no cycle
        assert indexed == (columnar.certified, columnar.cycle) == (True, None)
        assert col_counters["history.columnar.events"] == len(behavior)
        speedup = idx_seconds / max(col_seconds, 1e-9)
        label = f"top{top_level}"
        report[label] = {
            "events": len(behavior),
            "indexed_seconds": idx_seconds,
            "indexed_runs": idx_runs,
            "columnar_seconds": col_seconds,
            "columnar_runs": col_runs,
            "speedup": speedup,
            "columnar_counters": {
                name: value
                for name, value in col_counters.items()
                if name.startswith("history.columnar.")
            },
        }
        rows.append(
            (
                label,
                len(behavior),
                int(col_counters["history.columnar.conflict.pairs_bitset"]),
                int(col_counters["history.columnar.conflict.pairs_checked"]),
                f"{col_seconds * 1e3:.1f}",
                f"{idx_seconds * 1e3:.1f}",
                f"{speedup:.1f}x",
            )
        )
    write_bench_json("e17_columnar", report)
    return report, rows


@pytest.mark.benchmark(group="e17")
def test_e17_columnar_vs_indexed_certification(benchmark):
    report, rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        "E17: columnar engine vs shared history index, read-heavy histories",
        [
            "case",
            "events",
            "pairs bitset",
            "pairs checked",
            "columnar (ms)",
            "indexed (ms)",
            "speedup",
        ],
        rows,
    )
    largest = report[f"top{CASES[-1]}"]
    counters = largest["columnar_counters"]
    # the RW bitset sweep must carry the whole conflict phase: the
    # generic per-pair fallback never runs on pure read/write objects
    assert counters["history.columnar.conflict.pairs_bitset"] > 0
    assert counters["history.columnar.conflict.pairs_checked"] == 0
    assert counters["history.columnar.builds"] == 1
    if not SMOKE:
        speedups = [report[f"top{t}"]["speedup"] for t in CASES]
        assert largest["events"] >= 50_000, largest["events"]
        assert speedups[-1] >= 10.0, speedups
