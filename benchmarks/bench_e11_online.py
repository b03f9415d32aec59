"""E11 — streaming audit: incremental vs batch certification cost.

A monitoring deployment re-judges the system after every event.  Doing
that by re-running the batch certifier costs O(n) per event (O(n²)
total); the online certifier maintains the verdict incrementally.
Expected shape: the online certifier processes a whole stream in time
comparable to ONE batch run, and the per-event advantage grows with
stream length.  Verdict equality is asserted as we go.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _obs import write_bench_json
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.correctness import certify
from repro.core.online import OnlineCertifier
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.obs.metrics import MetricsRegistry
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.workload import WorkloadConfig, generate_workload


def make_stream(top_level: int, objects: int, seed: int = 0):
    system_type, programs = generate_workload(
        WorkloadConfig(seed=seed, top_level=top_level, objects=objects, max_depth=2)
    )
    system = make_generic_system(system_type, programs, MossRWLockingObject)
    result = run_system(
        system,
        EagerInformPolicy(seed=seed),
        system_type,
        max_steps=60_000,
        resolve_deadlocks=True,
    )
    return result.behavior, system_type


def run_comparison():
    rows = []
    cost_report = {}
    for top_level, objects in pick(
        [(8, 4), (16, 8), (32, 8), (64, 16)], [(8, 4)]
    ):
        behavior, system_type = make_stream(top_level, objects)
        # metrics-only instrumentation: counts the online certifier's
        # cost drivers (insertions, suffix re-evaluations, edges) without
        # span overhead in the timed loop
        registry = MetricsRegistry()
        start = time.perf_counter()
        certifier = OnlineCertifier(system_type, metrics=registry)
        for action in behavior:
            certifier.feed(action)
        online_seconds = time.perf_counter() - start
        online_verdict = certifier.verdict()
        cost_report[f"top{top_level}_obj{objects}"] = {
            "events": len(behavior),
            "online_seconds": online_seconds,
            "counters": registry.snapshot()["counters"],
        }

        start = time.perf_counter()
        batch = certify(behavior, system_type, construct_witness=False)
        one_batch_seconds = time.perf_counter() - start
        assert online_verdict.certified == batch.certified

        # per-event batch re-run, sampled every 16 events and extrapolated
        start = time.perf_counter()
        samples = 0
        for cut in range(1, len(behavior) + 1, 16):
            certify(behavior[:cut], system_type, construct_witness=False)
            samples += 1
        sampled = time.perf_counter() - start
        per_event_batch_estimate = sampled * (len(behavior) / max(samples, 1))
        rows.append(
            (
                len(behavior),
                f"{online_seconds * 1e3:.1f}",
                f"{one_batch_seconds * 1e3:.1f}",
                f"{per_event_batch_estimate * 1e3:.0f}",
                f"{per_event_batch_estimate / max(online_seconds, 1e-9):.0f}x",
            )
        )
    write_bench_json("e11_online_cost", cost_report)
    return rows


@pytest.mark.benchmark(group="e11")
def test_e11_online_vs_batch(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        "E11: streaming audit — online certifier vs per-event batch re-runs",
        [
            "events",
            "online full stream (ms)",
            "single batch (ms)",
            "batch per event, est. (ms)",
            "speedup",
        ],
        rows,
    )
    if not SMOKE:
        # the online stream should beat re-running batch per event handily
        assert all(float(row[4].rstrip("x")) > 2 for row in rows)
