"""Tests of the benchmark itself: its generators, checks and traced runs.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import collections
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import audit  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import streaming  # noqa: E402
from measure import ScaledClock, SpanRecorder  # noqa: E402
from repro.core.actions import Commit, RequestCreate  # noqa: E402
from repro.core.online import OnlineCertifier  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.stream import StreamWorkload, commit_as_you_go  # noqa: E402
from serializable import serializable_stream  # noqa: E402


def test_scaled_clock_leaves_its_probes_out_of_spans():
    recorder = SpanRecorder()
    start = time.perf_counter()
    clock = ScaledClock(start, recorders=[recorder])
    with recorder.span("work"):
        while time.perf_counter() - start < 0.3:
            pass
    raw, scaled = clock.stop()
    wall = time.perf_counter() - start
    assert scaled > 0
    # the timer probed several times, and neither the clock's raw time
    # nor the span counts those probes
    assert wall - raw > 0.002
    assert abs(recorder.seconds("work") - raw) < 0.002


def _max_in_flight(actions) -> int:
    """Most top-level transactions open at once in a stream."""
    open_tops, peak = set(), 0
    for action in actions:
        name = action.transaction
        if name.depth != 1:
            continue
        if isinstance(action, RequestCreate):
            open_tops.add(name)
            peak = max(peak, len(open_tops))
        elif isinstance(action, Commit):
            open_tops.discard(name)
    return peak


@pytest.mark.parametrize("seed", [42, 43, 44])
def test_serializable_stream_never_latches_a_cycle(seed):
    workload = StreamWorkload(top_level=600, seed=seed)
    system_type, actions = serializable_stream(workload)
    registry = MetricsRegistry()
    certifier = OnlineCertifier(system_type, metrics=registry, compaction=True)
    for action in actions:
        certifier.feed(action)
        assert certifier.verdict().cycle is None
    assert certifier.verdict().certified
    assert registry.snapshot()["counters"]["online.edges.conflict"] > 1000
    assert len(actions) == workload.event_estimate()
    # still interleaved: more than one top-level transaction in flight
    assert _max_in_flight(actions) > 1


def test_unadmitted_stream_of_the_same_shape_latches_a_cycle():
    """The lock admission is what keeps the streams above acyclic."""
    system_type, actions = commit_as_you_go(StreamWorkload(top_level=600, seed=42))
    assert OnlineCertifier(system_type).feed_all(list(actions)).cycle is not None


def test_serializable_stream_is_deterministic():
    workload = StreamWorkload(top_level=50, seed=7)
    assert serializable_stream(workload)[1] == serializable_stream(workload)[1]


@pytest.fixture(scope="module")
def corpus_inputs():
    return audit.build(seed=1)


def test_audit_corpus_groups(corpus_inputs):
    corpus = corpus_inputs.corpus
    accepted = [log for log in corpus if log.group == audit.ACCEPTED]
    rejected = [log for log in corpus if log.group == audit.REJECTED]
    assert accepted and all(log.certified and not log.cycle for log in accepted)
    assert rejected and all(log.cycle and not log.certified for log in rejected)
    serial = [log.events for log in corpus if log.label == "serial"]
    assert min(serial) >= 1000 and max(serial) <= 4100
    assert all(2000 <= log.events <= 5000 for log in rejected)


def _tamper(text: str) -> str:
    """Change the value the first read access returned."""
    blob = json.loads(text)
    reads = {
        tuple(access["transaction"])
        for access in blob["system_type"]["accesses"]
        if access["operation"]["op"] == "ReadOp"
    }
    for event in blob["behavior"]:
        if event["kind"] == "request_commit" and tuple(event["transaction"]) in reads:
            event["value"]["v"] += 1_000
            return json.dumps(blob)
    raise AssertionError("no read access in the log")


def test_tampered_log_makes_failed_frac_nonzero(corpus_inputs):
    corpus = list(corpus_inputs.corpus)
    index = next(i for i, log in enumerate(corpus) if log.label == "moss")
    assert audit.measure(audit.Inputs(corpus, [index]), 0.5, None)["failed"] == 0
    # the log changes after its verdict was recorded
    corpus.append(dataclasses.replace(corpus[index], text=_tamper(corpus[index].text)))
    outcome = audit.measure(audit.Inputs(corpus, [index, len(corpus) - 1]), 0.5, None)
    assert outcome["failed"] > 0
    assert 0 < outcome["failed"] / outcome["attempted"] < 1


def test_traced_audit_phases_agree_with_certify(corpus_inputs):
    """Each phase-by-phase verdict equals certify's on the same log, and
    the phases rank as the layer table says."""
    groups = {audit.ACCEPTED: SpanRecorder(), audit.REJECTED: SpanRecorder()}
    for log in corpus_inputs.corpus:
        behavior, system_type = audit.load_case(log.text)
        expected = audit.certify_log(behavior, system_type)
        assert audit.check(log, expected) is None
        counts = collections.Counter()
        verdict = audit.traced_certify(behavior, system_type, groups[log.group], counts)
        assert verdict == expected
    accepted = audit.ranking(groups[audit.ACCEPTED])
    assert accepted[0][0] == audit.PHASES["witness_check"]
    rejected = dict(audit.ranking(groups[audit.REJECTED]))
    conflict_arv = rejected.pop(audit.PHASES["conflict"]) + rejected.pop(
        audit.PHASES["arv"]
    )
    assert conflict_arv > max(rejected.values())


def test_traced_audit_coverage(corpus_inputs):
    corpus = corpus_inputs.corpus
    inputs = audit.Inputs(corpus, [i for i, log in enumerate(corpus) if log.events < 3000])
    untraced = audit.measure(inputs, 3, None)
    recorder = SpanRecorder()
    traced = audit.measure(inputs, 3, recorder)
    assert untraced["failed"] == traced["failed"] == 0
    layers = audit.layer_metrics(traced, recorder, untraced)
    assert 0.8 < layers["audit.coverage"] < 1.25
    assert recorder.attributed() / traced["wall_s"] > 0.95


def test_pipeline_checks_and_ranking():
    cases = pipeline.build(seed=3)[:4]
    recorder = SpanRecorder()
    outcome = pipeline.measure(cases, 1.0, recorder)
    assert outcome["failed"] == 0 and outcome["attempted"] >= 1
    layers = pipeline.layer_metrics(outcome, recorder, outcome)
    simulate = {
        name: layers[name]
        for name in (
            "sim.driver.self_s",
            "generic.controller.enabled_outputs_s",
            "generic.controller.enabled_aborts_s",
            "generic.controller.effect_s",
            "automata.composition.effect_self_s",
            "locking.moss.s",
            "undo.logging.s",
            "sim.programs.s",
        )
    }
    assert max(simulate, key=simulate.get) == "generic.controller.enabled_outputs_s"
    assert recorder.attributed() / outcome["wall_s"] > 0.95


def test_pipeline_schedule_mixes_algorithms_and_schedulers():
    cases = pipeline.build(seed=5)[:20]
    combos = {(case.algorithm, case.seed % 2) for case in cases}
    assert combos == {("moss", 0), ("moss", 1), ("undo", 0), ("undo", 1)}
    assert {case.top_level for case in cases} == set(pipeline.SIZES)


def test_traced_stream_sessions_certify():
    inputs = streaming.build(seed=2)
    recorder = SpanRecorder(sampled=(streaming.FEED,))
    outcome = streaming.measure(inputs, 2, recorder)
    # each phase opens at least one session per client, more when a
    # client finishes its stream before the phase ends; every session is
    # checked on close (certified, actions == fed)
    assert outcome["failed"] == 0 and outcome["failures"] == []
    assert outcome["attempted"] >= 2 * streaming.SESSIONS
    layers = streaming.layer_metrics(outcome, recorder, outcome)
    assert layers["core.online.edges"] > 0
    assert layers["stream.lag_samples"] > 0
    assert recorder.attributed() / outcome["wall_s"] > 0.9


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {item["name"] for item in spec["workloads"]} == set(run.MODULES)
    assert {item["name"]: item["unit"] for item in spec["end_to_end"]} == run.END_TO_END
    assert {item["name"]: item["unit"] for item in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "metrics" not in result.stdout
