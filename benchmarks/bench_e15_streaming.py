"""E15 — bounded-memory streaming certification: compaction on vs off.

The online certifier historically retained every tracked operation for
the life of the run — correct, but fatal for a long-lived audit stream.
``OnlineCertifier(compaction=True)`` folds the settled visible prefix
of each object into a compact summary (resume state + conflict
frontier) and evicts quiescent subtree records, so retained state
tracks the *live window* of the stream rather than its length.

This benchmark drives commit-as-you-go streams
(:func:`repro.stream.workload.commit_as_you_go`) of growing length — up
to ~100k events — through both engines, asserts the judgements are
identical, and records peak retained tracked operations and throughput
in ``BENCH_e15_streaming.json``.  The headline targets: the compacted
peak is bounded by the live window (and flat as the stream grows 7x)
while the uncompacted baseline's retention grows linearly with the
stream.  A mid-size stream pair is also pushed through the
:class:`repro.stream.service.StreamService` feed API to price the
asyncio transport: each round times the service and the bare compacted
engine on the same streams, back to back in one process, and the
baseline records every round's service ÷ engine ratio with its median
and quartiles (a ratio of two lanes run together cancels the machine's
drift, which raw service seconds do not), plus the median service
run's latency quantiles.  Every lane is handed a pre-built action list,
so the clock times certification, not stream generation, and the peak
is sampled in a separate untimed pass.
"""

import asyncio
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _obs import write_bench_json
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.online import OnlineCertifier
from repro.obs.metrics import MetricsRegistry
from repro.stream.service import StreamConfig, certify_stream
from repro.stream.workload import StreamWorkload, commit_as_you_go

#: sliding window of in-flight top-level transactions
WINDOW = 8
#: compaction sweep cadence (events between sweeps)
INTERVAL = 64
#: how often the untimed peak pass samples ``live_tracked_ops``
SAMPLE_EVERY = 8

#: stream lengths, in top-level transactions (24 events each)
CASES = pick([600, 2100, 4200], [30, 60])
#: rounds of the service lane, each beside a bare-engine run
SERVICE_ROUNDS = pick(7, 1)
#: sessions (streams) the service lane drives over two workers
SESSIONS = 2


def build_stream(top_level: int, seed: int = 42):
    """One commit-as-you-go stream, generated in full: ``(system, actions)``."""
    system, actions = commit_as_you_go(
        StreamWorkload(
            top_level=top_level, accesses=4, window=WINDOW, rotation=16, seed=seed
        )
    )
    return system, list(actions)


def judgement(verdict):
    return (verdict.certified, verdict.arv_violations, verdict.cycle is None)


def peak_tracked_ops(system, actions, compaction: bool) -> int:
    """The most tracked operations one certifier retains over ``actions``,
    sampled every ``SAMPLE_EVERY`` events (an untimed pass)."""
    certifier = OnlineCertifier(
        system, compaction=compaction, compaction_interval=INTERVAL
    )
    peak = 0
    for events, action in enumerate(actions, 1):
        certifier.feed(action)
        if events % SAMPLE_EVERY == 0:
            peak = max(peak, certifier.live_tracked_ops())
    return max(peak, certifier.live_tracked_ops())


def feed_seconds(certifier, actions) -> float:
    """Seconds ``certifier`` takes to consume the pre-built ``actions``."""
    feed = certifier.feed
    start = time.perf_counter()
    for action in actions:
        feed(action)
    return time.perf_counter() - start


def timed_feed(system, actions, compaction: bool):
    """Time one certifier over the pre-built ``actions``; return
    ``(verdict, stats)``."""
    certifier = OnlineCertifier(
        system, compaction=compaction, compaction_interval=INTERVAL
    )
    seconds = feed_seconds(certifier, actions)
    return certifier.verdict(), {
        "events": len(actions),
        "seconds": seconds,
        "events_per_second": len(actions) / max(seconds, 1e-9),
        "peak_live_tracked_ops": peak_tracked_ops(system, actions, compaction),
        "compaction": certifier.compaction_stats(),
    }


def timed_engine(streams) -> float:
    """Seconds the bare compacted engine takes over ``streams``, one
    certifier per stream, fed one stream after the other."""
    return sum(
        feed_seconds(
            OnlineCertifier(system, compaction=True, compaction_interval=INTERVAL),
            actions,
        )
        for system, actions in streams
    )


def timed_service(streams, workers: int = 2):
    """Price the asyncio feed transport on ``streams``, one session each.

    A service-level registry rides along, so the report also carries the
    client-visible feed→verdict latency quantiles (queue wait plus
    certification, in seconds) next to the raw throughput.
    """
    registry = MetricsRegistry()
    config = StreamConfig(
        workers=workers, compaction=True, compaction_interval=INTERVAL
    )

    async def drive():
        return await asyncio.gather(
            *(
                certify_stream(
                    f"bench-{index}", system, actions, config, metrics=registry
                )
                for index, (system, actions) in enumerate(streams)
            )
        )

    start = time.perf_counter()
    results = asyncio.run(drive())
    seconds = time.perf_counter() - start
    events = sum(result.actions for result in results)
    latency = registry.histogram("stream.latency.feed_to_verdict")
    return {
        "sessions": len(streams),
        "workers": workers,
        "events": events,
        "seconds": seconds,
        "events_per_second": events / max(seconds, 1e-9),
        "latency": {
            "count": latency.count,
            "p50": latency.quantile(0.50),
            "p95": latency.quantile(0.95),
            "p99": latency.quantile(0.99),
        },
    }


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` (all three equal for one value)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def service_rounds(top_level: int):
    """``SERVICE_ROUNDS`` rounds over the same ``SESSIONS`` streams, each
    timing the service and the bare compacted engine back to back (which
    goes first alternates).  Returns the service run of median seconds,
    with every run's seconds under ``runs``, each round under ``rounds``
    and the service ÷ engine ratio's quartiles under ``ratio``."""
    streams = [build_stream(top_level, seed=42 + index) for index in range(SESSIONS)]
    runs, rounds = [], []
    for index in range(SERVICE_ROUNDS):
        if index % 2:
            service = timed_service(streams)
            engine = timed_engine(streams)
        else:
            engine = timed_engine(streams)
            service = timed_service(streams)
        runs.append(service)
        rounds.append(
            {
                "service_s": service["seconds"],
                "engine_s": engine,
                "ratio": service["seconds"] / max(engine, 1e-9),
            }
        )
    q1, median, q3 = quartiles([round_["ratio"] for round_ in rounds])
    middle = sorted(runs, key=lambda run: run["seconds"])[len(runs) // 2]
    return dict(
        middle,
        runs=[run["seconds"] for run in runs],
        rounds=rounds,
        ratio={"median": median, "q1": q1, "q3": q3},
    )


def run_comparison():
    rows = []
    report = {}
    for top_level in CASES:
        system, actions = build_stream(top_level)
        compacted_verdict, compacted = timed_feed(system, actions, compaction=True)
        baseline_verdict, baseline = timed_feed(system, actions, compaction=False)
        assert judgement(compacted_verdict) == judgement(baseline_verdict)
        label = f"top{top_level}"
        report[label] = {
            "events": compacted["events"],
            "compacted": compacted,
            "baseline": baseline,
        }
        rows.append(
            (
                label,
                compacted["events"],
                compacted["peak_live_tracked_ops"],
                baseline["peak_live_tracked_ops"],
                f"{compacted['seconds']:.2f}",
                f"{baseline['seconds']:.2f}",
                f"{compacted['events_per_second'] / 1e3:.1f}k",
            )
        )
    report["service"] = service_rounds(CASES[len(CASES) // 2])
    write_bench_json("e15_streaming", report)
    return report, rows


@pytest.mark.benchmark(group="e15")
def test_e15_streaming_compaction(benchmark):
    report, rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        "E15: commit-as-you-go streams, compacted vs uncompacted retention",
        [
            "case",
            "events",
            "peak ops (compacted)",
            "peak ops (baseline)",
            "compacted (s)",
            "baseline (s)",
            "throughput",
        ],
        rows,
    )
    first = report[f"top{CASES[0]}"]
    largest = report[f"top{CASES[-1]}"]
    # retention bounded by the live window, independent of stream length
    assert largest["compacted"]["peak_live_tracked_ops"] <= 40 * WINDOW
    assert (
        largest["compacted"]["peak_live_tracked_ops"]
        <= first["compacted"]["peak_live_tracked_ops"] + 8
    )
    assert largest["compacted"]["compaction"]["evicted_rows"] > 0
    # the service section reports feed→verdict latency quantiles and
    # its cost against the bare engine on the same streams
    service = report["service"]
    latency = service["latency"]
    assert latency["count"] == service["events"]
    assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"]
    assert len(service["rounds"]) == SERVICE_ROUNDS
    ratio = service["ratio"]
    assert 0.0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    # the baseline's retention grows with the stream
    assert (
        largest["baseline"]["peak_live_tracked_ops"]
        > largest["compacted"]["peak_live_tracked_ops"]
    )
    if not SMOKE:
        assert largest["events"] >= 100_000
        assert (
            largest["baseline"]["peak_live_tracked_ops"]
            >= 5 * first["baseline"]["peak_live_tracked_ops"]
        )
