"""The ``audit`` workload: the ``repro audit`` path over a recorded corpus.

A closed loop with one client.  Each case loads one recorded log with
``load_case`` and certifies it with ``certify(validate_input=True)``,
witness included, as ``repro audit`` does.  The corpus is recorded at
set-up, and each log's verdict is recorded there by an independent
engine (a bare :class:`repro.core.online.OnlineCertifier`):

* accepted logs: simulated Moss and undo-logging runs of 40 top-level
  transactions, stopped after :data:`SIM_EVENTS` events and each also
  cut to prefixes of 40, 60 and 80% (a prefix of a behavior is a
  behavior), and serial (window 1)
  ``commit_as_you_go`` streams of 1-4k events.  The witness check
  dominates them and grows faster than the log.
* rejected logs: interleaved (window 8) ``commit_as_you_go`` streams of
  2-5k events, each closing an SG cycle.  There is no witness; conflict
  enumeration and the return-value check dominate.

Batch certification does all of the work, so this workload moves with
``core`` and not with the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.correctness import (
    WitnessError,
    build_witness,
    certify,
    validate_serial_behavior,
)
from repro.core.events import project_transaction, serial_projection
from repro.core.history import HistoryIndex
from repro.core.names import ROOT, SystemType, TransactionName
from repro.core.online import OnlineCertifier
from repro.core.return_values import check_appropriate_return_values
from repro.core.serde import dump_case, load_case
from repro.core.serialization_graph import (
    SerializationGraph,
    conflict_pairs,
    precedes_pairs,
)
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.serial.simple_db import check_simple_behavior
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.workload import CounterKind, MapKind, RWKind, WorkloadConfig, generate_workload
from repro.stream import StreamWorkload, commit_as_you_go
from repro.undo.logging import UndoLoggingObject

from measure import Digest, ScaledClock, SpanRecorder, median, percentile

ACCEPTED, REJECTED = "accepted", "rejected"
#: simulated logs: (label, object kind, generic object factory)
SIMULATED = (
    ("moss", RWKind, MossRWLockingObject),
    ("undo-counter", CounterKind, UndoLoggingObject),
    ("moss", RWKind, MossRWLockingObject),
    ("undo-map", MapKind, UndoLoggingObject),
)
SIM_TOP_LEVEL = 40
SIM_OBJECTS = 8
#: events simulated per run.  The runs are sized by event count, not by
#: how long a seed's transactions take to finish, so that recording the
#: corpus costs about the same on every seed.
SIM_EVENTS = 600
#: each simulated log is recorded whole and cut to these shares of its
#: events, which spreads the sizes of the most frequently audited logs
SIM_PREFIXES = (0.4, 0.6, 0.8, 1.0)
#: top-level transactions of the serial logs (24 events each: 1k-4k events)
SERIAL_TOP_LEVEL = (42, 84, 125, 167)
#: top-level transactions of the interleaved logs (2k-5k events)
INTERLEAVED_TOP_LEVEL = (84, 125, 167, 208)
INTERLEAVED_WINDOW = 8

PHASES = {
    "project": "core.events.serial_projection",
    "index": "core.history.HistoryIndex",
    "validate": "serial.simple_db.check_simple_behavior",
    "arv": "core.return_values.check_appropriate_return_values",
    "build": "core.serialization_graph.build",
    "conflict": "core.serialization_graph.conflict_pairs",
    "precedes": "core.serialization_graph.precedes_pairs",
    "find_cycle": "core.graph.find_cycle",
    "order": "core.correctness.to_sibling_order",
    "witness_build": "core.correctness.build_witness",
    "witness_validate": "core.correctness.validate_serial_behavior",
    "witness_check": "core.correctness.witness_projection_check",
}
LOAD = "core.serde.load_case"


@dataclass(frozen=True)
class Log:
    """One recorded log and the verdict recorded for it at set-up."""

    label: str
    group: str
    text: str
    events: int
    certified: bool
    cycle: bool


@dataclass
class Verdict:
    certified: bool
    cycle: bool
    witness_ok: bool


def _record(label: str, group: str, behavior: Any, system_type: SystemType) -> Log:
    text = dump_case(behavior, system_type)
    loaded, loaded_type = load_case(text)
    online = OnlineCertifier(loaded_type).feed_all(loaded)
    return Log(
        label, group, text, len(loaded), online.certified, online.cycle is not None
    )


def record_corpus(seed: int) -> List[Log]:
    """Record the corpus of run ``seed``: simulated, serial, interleaved."""
    corpus = []
    for offset, (label, kind, factory) in enumerate(SIMULATED):
        config = WorkloadConfig(
            seed=seed * 100 + offset,
            top_level=SIM_TOP_LEVEL,
            objects=SIM_OBJECTS,
            max_depth=2,
            kind=kind(),
        )
        system_type, programs = generate_workload(config)
        result = run_system(
            make_generic_system(system_type, programs, factory),
            EagerInformPolicy(seed=config.seed),
            system_type,
            max_steps=SIM_EVENTS,
            resolve_deadlocks=True,
        )
        for share in SIM_PREFIXES:
            prefix = result.behavior[: round(len(result.behavior) * share)]
            corpus.append(_record(label, ACCEPTED, prefix, system_type))
    for offset, top_level in enumerate(SERIAL_TOP_LEVEL):
        system_type, actions = commit_as_you_go(
            StreamWorkload(top_level=top_level, window=1, seed=seed * 100 + offset)
        )
        corpus.append(_record("serial", ACCEPTED, list(actions), system_type))
    for offset, top_level in enumerate(INTERLEAVED_TOP_LEVEL):
        # the first sub-seed whose stream closes an SG cycle
        for attempt in range(100):
            system_type, actions = commit_as_you_go(
                StreamWorkload(
                    top_level=top_level,
                    window=INTERLEAVED_WINDOW,
                    seed=seed * 100 + offset + 1000 * attempt,
                )
            )
            log = _record("interleaved", REJECTED, list(actions), system_type)
            if log.cycle:
                corpus.append(log)
                break
        else:
            raise RuntimeError(f"no cyclic interleaved stream of {top_level} tops")
    return corpus


def schedule(corpus: List[Log]) -> List[int]:
    """One pass of audits: a round per serial log, each round the serial
    log, every simulated log and two interleaved logs, so that a pass
    holds every serial size once and every interleaved size twice.
    Small logs make up most audits, so that a run audits well over 100
    logs."""
    simulated = [i for i, log in enumerate(corpus) if log.label != "serial"
                 and log.group == ACCEPTED]
    serial = [i for i, log in enumerate(corpus) if log.label == "serial"]
    rejected = [i for i, log in enumerate(corpus) if log.group == REJECTED]
    half = len(simulated) // 2
    order: List[int] = []
    for round_ in range(len(serial)):
        order.append(serial[round_ % len(serial)])
        order.extend(simulated[:half])
        order.append(rejected[(2 * round_) % len(rejected)])
        order.extend(simulated[half:])
        order.append(rejected[(2 * round_ + 1) % len(rejected)])
    return order


@dataclass
class Inputs:
    corpus: List[Log]
    order: List[int]


def build(seed: int) -> Inputs:
    corpus = record_corpus(seed)
    return Inputs(corpus, schedule(corpus))


def digest(inputs: Inputs) -> Digest:
    result = Digest()
    for log in inputs.corpus:
        result.add(log.text, log.events)
    return result


def certify_log(behavior: Any, system_type: SystemType) -> Verdict:
    """Certify one loaded log as ``repro audit`` does."""
    certificate = certify(behavior, system_type, validate_input=True)
    return Verdict(
        certificate.certified,
        certificate.cycle is not None,
        certificate.witness is not None and not certificate.witness_problems,
    )


def traced_certify(
    behavior: Any, system_type: SystemType, recorder: SpanRecorder, counts: Dict[str, int]
) -> Verdict:
    """``certify(validate_input=True)``'s default lane, one phase per span.

    Mirrors :func:`repro.core.correctness.certify` call for call, in its
    order, so that each phase's time can be read on its own.
    """
    with recorder.span(PHASES["project"]):
        serial = serial_projection(behavior)
    with recorder.span(PHASES["index"]):
        index = HistoryIndex(serial, system_type)
    with recorder.span(PHASES["validate"]):
        problems = check_simple_behavior(serial, system_type)
    counts["problems"] += len(problems)
    if problems:
        return Verdict(False, False, False)
    with recorder.span(PHASES["arv"]):
        violations = check_appropriate_return_values(serial, system_type, index)
    counts["violations"] += len(violations)
    with recorder.span(PHASES["build"]):
        graph = SerializationGraph()
        for transaction in index.create_requested:
            if index.is_visible(transaction.parent, ROOT):
                graph.add_node(transaction)
        with recorder.span(PHASES["conflict"]):
            conflicts = conflict_pairs(serial, system_type, index)
        for edge in conflicts:
            graph.add_edge(edge)
        with recorder.span(PHASES["precedes"]):
            precedes = precedes_pairs(serial, index)
        for edge in precedes:
            graph.add_edge(edge)
    counts["conflict_edges"] += len(conflicts)
    counts["precedes_edges"] += len(precedes)
    with recorder.span(PHASES["find_cycle"]):
        cycle = graph.find_cycle()
    counts["cycles"] += cycle is not None
    certified = not violations and cycle is None
    if not certified:
        return Verdict(False, cycle is not None, False)
    with recorder.span(PHASES["order"]):
        order = graph.to_sibling_order()
    try:
        with recorder.span(PHASES["witness_build"]):
            witness = build_witness(serial, system_type, order, index)
    except WitnessError:
        return Verdict(True, False, False)
    counts["witness_events"] += len(witness)
    with recorder.span(PHASES["witness_validate"]):
        problems = validate_serial_behavior(witness, system_type)
    if problems:
        return Verdict(True, False, False)
    with recorder.span(PHASES["witness_check"]):
        mentioned: Set[TransactionName] = index.create_requested | index.created | {ROOT}
        witness_ok = all(
            project_transaction(witness, transaction)
            == project_transaction(serial, transaction, index)
            for transaction in mentioned
            if index.is_visible(transaction, ROOT)
        )
    return Verdict(True, False, witness_ok)


def check(log: Log, verdict: Verdict) -> Optional[str]:
    """Why ``verdict`` is wrong for ``log``, or None when it is right."""
    if (verdict.certified, verdict.cycle) != (log.certified, log.cycle):
        return (
            f"{log.label} log of {log.events} events: verdict "
            f"certified={verdict.certified} cycle={verdict.cycle}, recorded "
            f"certified={log.certified} cycle={log.cycle}"
        )
    if log.group == ACCEPTED and not (verdict.certified and verdict.witness_ok):
        return f"{log.label} log of {log.events} events: no validated witness"
    if log.group == REJECTED and (verdict.certified or not verdict.cycle):
        return f"{log.label} log of {log.events} events: rejected without a cycle"
    return None


def measure(
    inputs: Inputs, seconds: float, recorder: Optional[SpanRecorder]
) -> Dict[str, Any]:
    """Audit whole passes over the schedule until ``seconds`` have been
    measured.

    A pass holds each serial size once, and one serial log costs as much
    as dozens of small ones, so a run that stopped mid-pass would measure
    a mix that depends on where it stopped.  Times are scaled to the
    nominal machine speed by a :class:`measure.ScaledClock`, which also
    probes through a serial log's seconds; ``seconds`` counts scaled
    time.
    """
    groups = {ACCEPTED: SpanRecorder(), REJECTED: SpanRecorder()}
    counts = dict.fromkeys(
        ("problems", "violations", "conflict_edges", "precedes_edges",
         "cycles", "witness_events", "bytes"), 0
    )
    times: Dict[str, List[float]] = {ACCEPTED: [], REJECTED: []}
    events = {ACCEPTED: 0, REJECTED: 0}
    certify_s: Dict[int, List[float]] = {}
    phases_s: List[Tuple[int, float]] = []
    failures: List[str] = []
    wall = elapsed = 0.0
    audits = 0
    clock = ScaledClock(recorders=list(groups.values()) if recorder is not None else [])
    try:
        while elapsed < seconds:
            for log_index in inputs.order:
                audits += 1
                log = inputs.corpus[log_index]
                clock.lap()
                if recorder is None:
                    behavior, system_type = load_case(log.text)
                    load_raw, load_scaled = clock.lap()
                    verdict = certify_log(behavior, system_type)
                else:
                    group = groups[log.group]
                    with group.span(LOAD):
                        behavior, system_type = load_case(log.text)
                    load_raw, load_scaled = clock.lap()
                    verdict = traced_certify(behavior, system_type, group, counts)
                certify_raw, certify_scaled = clock.lap()
                if recorder is None:
                    certify_s.setdefault(log_index, []).append(certify_scaled)
                else:
                    phases_s.append((log_index, certify_scaled))
                wall += load_raw + certify_raw
                elapsed += load_scaled + certify_scaled
                times[log.group].append(load_scaled + certify_scaled)
                events[log.group] += log.events
                counts["bytes"] += len(log.text)
                problem = check(log, verdict)
                if problem is not None:
                    failures.append(problem)
    finally:
        clock.stop()
    if recorder is not None:
        for group in groups.values():
            recorder.merge(group)
    all_times = times[ACCEPTED] + times[REJECTED]
    rates = {
        group: events[group] / sum(times[group]) for group in times if times[group]
    }
    report = {
        "accepted.events_per_s": (rates.get(ACCEPTED, 0.0), "events/s"),
        "rejected.events_per_s": (rates.get(REJECTED, 0.0), "events/s"),
        "case_p50_ms": (median(all_times) * 1e3, "ms"),
        "case_p90_ms": (percentile(all_times, 0.9) * 1e3, "ms"),
        "raw.events_per_s": ((events[ACCEPTED] + events[REJECTED]) / wall, "events/s"),
        "machine.speed": (elapsed / wall, "ratio"),
        "logs": (audits, "count"),
    }
    if recorder is not None:
        # the largest certify phases of each group, as shares of its
        # certify time
        for name, group in groups.items():
            phases = ranking(group)
            total = sum(seconds for _, seconds in phases) or 1.0
            for phase, seconds in phases[:3]:
                report[f"{name}.{phase}.share"] = (seconds / total, "ratio")
    return {
        "attempted": audits,
        "failed": len(failures),
        "failures": failures,
        "wall_s": wall,
        "events_per_s": (events[ACCEPTED] + events[REJECTED]) / elapsed,
        "report": report,
        "groups": groups,
        "counts": counts,
        "certify_s": certify_s,
        "phases_s": phases_s,
        "digest": digest(inputs),
    }


def ranking(recorder: SpanRecorder) -> List[Tuple[str, float]]:
    """Certify phases by self time, largest first."""
    return sorted(
        ((name, recorder.self_seconds(name)) for name in PHASES.values()),
        key=lambda item: -item[1],
    )


def layer_metrics(
    outcome: Dict[str, Any], recorder: SpanRecorder, untraced: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-layer numbers of a traced ``measure`` call; ``untraced`` is an
    untraced call on the same inputs, the base of ``audit.coverage``."""
    counts = outcome["counts"]
    reference = {
        log_index: median(samples) for log_index, samples in untraced["certify_s"].items()
    }
    covered = [(s, reference[i]) for i, s in outcome["phases_s"] if i in reference]
    coverage = (
        sum(s for s, _ in covered) / sum(r for _, r in covered) if covered else 0.0
    )

    def phase(key: str) -> float:
        return recorder.seconds(PHASES[key])

    return {
        "core.serde.load_s": recorder.seconds(LOAD),
        "core.serde.bytes": counts["bytes"],
        "core.events.project_s": phase("project"),
        "core.history.index_s": phase("index"),
        "serial.simple_db.validate_s": phase("validate"),
        "serial.simple_db.problems": counts["problems"],
        "core.return_values.arv_s": phase("arv"),
        "core.return_values.violations": counts["violations"],
        "core.serialization_graph.conflict_s": phase("conflict"),
        "core.serialization_graph.conflict_edges": counts["conflict_edges"],
        "core.serialization_graph.precedes_s": phase("precedes"),
        "core.serialization_graph.precedes_edges": counts["precedes_edges"],
        "core.serialization_graph.build_s": recorder.self_seconds(PHASES["build"]),
        "core.graph.find_cycle_s": phase("find_cycle"),
        "core.graph.cycles": counts["cycles"],
        "core.correctness.order_s": phase("order"),
        "core.correctness.witness_build_s": phase("witness_build"),
        "core.correctness.witness_validate_s": phase("witness_validate"),
        "core.correctness.witness_check_s": phase("witness_check"),
        "core.correctness.witness_events": counts["witness_events"],
        "audit.coverage": coverage,
    }
