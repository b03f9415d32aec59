"""Sharded parallel batch certification and corpus simulation.

Independent behaviors are certified independently — Theorem 8/19 is a
judgement over one behavior at a time — so a corpus of recorded runs is
embarrassingly parallel.  This module partitions a corpus across a
``multiprocessing`` worker pool:

* :func:`certify_corpus` — judge many (behavior, system type) cases,
  sharded round-robin over ``jobs`` workers; results come back in input
  order and the exposed :class:`CaseVerdict` rows are identical whatever
  the fan-out (``jobs=1`` runs inline, with no pool at all).
* :func:`simulate_corpus` / :func:`record_corpus` — produce the corpus
  in the first place: run the sim driver over many seeded workload
  configurations, in parallel, optionally writing each run to disk in
  the ``repro record`` JSON format.  Each run is :func:`seeded_run`,
  the one ``repro demo``/``record``/``trace`` make for that seed, so a
  corpus file is byte-identical to a single ``repro record``.

Shard fan-out is observable: pass a :class:`repro.obs.MetricsRegistry`
and the engine records ``parallel.jobs`` / ``parallel.shards`` gauges
and ``parallel.cases`` / ``parallel.certified`` / ``parallel.rejected``
counters (see ``docs/PERFORMANCE.md``).

Workers are plain ``fork``/``spawn`` processes; every payload crossing
the pool boundary (actions, system types, verdicts) is picklable by
construction.  The CLI exposes the engine as ``repro audit CASE...
--jobs N`` and ``repro record --runs N --jobs N``.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .core.actions import Action, Behavior
from .core.correctness import certify
from .core.names import SystemType
from .core.serde import dump_case
from .generic.system import make_generic_system
from .locking.moss import MossRWLockingObject
from .locking.read_update import ReadUpdateLockingObject
from .obs.metrics import MetricsRegistry
from .sim.driver import RunResult, run_system
from .sim.faults import AbortInjector
from .sim.policies import EagerInformPolicy, RandomPolicy, SchedulingPolicy
from .sim.stats import RunStats
from .sim.workload import CounterKind, RWKind, WorkloadConfig, generate_workload
from .undo.logging import UndoLoggingObject

__all__ = [
    "CaseVerdict",
    "certify_corpus",
    "seeded_run",
    "simulate_corpus",
    "record_corpus",
]

#: a corpus entry: (label, behavior, system type)
Case = Tuple[str, Sequence[Action], SystemType]


@dataclass(frozen=True)
class CaseVerdict:
    """The (picklable) summary of one batch certification in a corpus."""

    label: str
    certified: bool
    arv_violations: int
    has_cycle: bool
    events: int
    input_problems: int = 0

    def __str__(self) -> str:
        status = "CERTIFIED" if self.certified else "NOT certified"
        detail = []
        if self.arv_violations:
            detail.append(f"{self.arv_violations} ARV violations")
        if self.has_cycle:
            detail.append("SG cycle")
        if self.input_problems:
            detail.append(f"{self.input_problems} input problems")
        suffix = f" ({', '.join(detail)})" if detail else ""
        return f"{self.label}: {status} [{self.events} events]{suffix}"


def _judge_case(case: Case, validate_input: bool) -> CaseVerdict:
    label, behavior, system_type = case
    certificate = certify(
        behavior,
        system_type,
        construct_witness=False,
        validate_input=validate_input,
    )
    return CaseVerdict(
        label,
        certificate.certified,
        len(certificate.arv_violations),
        certificate.cycle is not None,
        len(behavior),
        len(certificate.input_problems),
    )


def _certify_shard(payload: Tuple[List[Tuple[int, Case]], bool]):
    shard, validate_input = payload
    return [(position, _judge_case(case, validate_input)) for position, case in shard]


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


def _shard(items: Sequence, shards: int) -> List[list]:
    """Round-robin partition preserving each item's original position."""
    buckets: List[list] = [[] for _ in range(shards)]
    for position, item in enumerate(items):
        buckets[position % shards].append((position, item))
    return [bucket for bucket in buckets if bucket]


def certify_corpus(
    cases: Sequence[Case],
    jobs: int = 1,
    validate_input: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> List[CaseVerdict]:
    """Batch-certify a corpus of behaviors, sharded over ``jobs`` workers.

    Each case is ``(label, behavior, system_type)``; the returned
    verdicts are in input order and independent of ``jobs`` (the test
    suite asserts ``jobs=1`` and ``jobs=4`` verdict-equivalence on
    randomized corpora).  ``jobs <= 1`` — or a corpus of one — runs
    inline in this process.  ``metrics`` records the shard fan-out and
    accept/reject counts.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    jobs = min(jobs, len(cases)) if cases else 1
    if jobs <= 1:
        verdicts = [_judge_case(case, validate_input) for case in cases]
        shards = 1 if cases else 0
    else:
        sharded = _shard(cases, jobs)
        shards = len(sharded)
        with _pool_context().Pool(jobs) as pool:
            chunks = pool.map(
                _certify_shard, [(shard, validate_input) for shard in sharded]
            )
        ordered: List[Tuple[int, CaseVerdict]] = [
            entry for chunk in chunks for entry in chunk
        ]
        ordered.sort(key=lambda entry: entry[0])
        verdicts = [verdict for _, verdict in ordered]
    if metrics is not None:
        metrics.set_gauge("parallel.jobs", jobs)
        metrics.set_gauge("parallel.shards", shards)
        metrics.inc("parallel.cases", len(verdicts))
        certified = sum(1 for verdict in verdicts if verdict.certified)
        if certified:
            metrics.inc("parallel.certified", certified)
        if len(verdicts) - certified:
            metrics.inc("parallel.rejected", len(verdicts) - certified)
    return verdicts


# ---------------------------------------------------------------------------
# Corpus production: many seeded sim-driver runs, in parallel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SimSpec:
    """A picklable description of one seeded driver run."""

    seed: int
    algorithm: str
    top_level: int
    objects: int
    max_depth: int
    abort_rate: float
    max_steps: int
    output: Optional[str] = None


def seeded_run(
    seed: int,
    algorithm: str = "moss",
    top_level: int = 4,
    objects: int = 3,
    max_depth: int = 2,
    abort_rate: float = 0.0,
    max_steps: int = 10_000,
) -> Tuple[RunResult, SystemType]:
    """The seeded run ``repro demo``/``record``/``trace`` and the corpus
    workers simulate: a generated workload over ``algorithm``'s objects
    (``moss``, ``read-update`` or ``undo``), scheduled by
    ``EagerInformPolicy`` or, with a positive ``abort_rate``, by an
    ``AbortInjector`` over ``RandomPolicy``, with deadlocks resolved."""
    if algorithm == "moss":
        kind, factory = RWKind(), MossRWLockingObject
    elif algorithm == "read-update":
        kind, factory = CounterKind(), ReadUpdateLockingObject
    elif algorithm == "undo":
        kind, factory = CounterKind(), UndoLoggingObject
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    config = WorkloadConfig(
        seed=seed,
        top_level=top_level,
        objects=objects,
        max_depth=max_depth,
        kind=kind,
    )
    system_type, programs = generate_workload(config)
    system = make_generic_system(system_type, programs, factory)
    policy: SchedulingPolicy = EagerInformPolicy(seed=seed)
    if abort_rate > 0:
        policy = AbortInjector(RandomPolicy(seed), abort_rate=abort_rate, seed=seed)
    result = run_system(
        system, policy, system_type, max_steps=max_steps, resolve_deadlocks=True
    )
    return result, system_type


def _run_spec(spec: _SimSpec):
    result, system_type = seeded_run(
        spec.seed,
        spec.algorithm,
        spec.top_level,
        spec.objects,
        spec.max_depth,
        spec.abort_rate,
        spec.max_steps,
    )
    if spec.output is not None:
        Path(spec.output).write_text(dump_case(result.behavior, system_type))
        return spec.output, len(result.behavior), result.stats
    return result.behavior, system_type


def _map_specs(specs: Sequence[_SimSpec], jobs: int) -> list:
    jobs = min(jobs, len(specs)) if specs else 1
    if jobs <= 1:
        return [_run_spec(spec) for spec in specs]
    with _pool_context().Pool(jobs) as pool:
        return pool.map(_run_spec, specs)


def _make_specs(
    seeds: Sequence[int],
    algorithm: str,
    top_level: int,
    objects: int,
    max_depth: int,
    abort_rate: float,
    max_steps: int,
    outputs: Optional[Sequence[Union[str, Path]]] = None,
) -> List[_SimSpec]:
    if outputs is not None and len(outputs) != len(seeds):
        raise ValueError("outputs must match seeds one-to-one")
    return [
        _SimSpec(
            seed,
            algorithm,
            top_level,
            objects,
            max_depth,
            abort_rate,
            max_steps,
            str(outputs[position]) if outputs is not None else None,
        )
        for position, seed in enumerate(seeds)
    ]


def simulate_corpus(
    seeds: Sequence[int],
    algorithm: str = "moss",
    top_level: int = 4,
    objects: int = 3,
    max_depth: int = 2,
    abort_rate: float = 0.0,
    max_steps: int = 10_000,
    jobs: int = 1,
) -> List[Tuple[Behavior, SystemType]]:
    """Run one seeded sim-driver workload per seed, ``jobs`` at a time.

    Returns ``(behavior, system_type)`` pairs in seed order — a corpus
    ready for :func:`certify_corpus`.  Each run is :func:`seeded_run`
    for that seed.
    """
    specs = _make_specs(
        seeds, algorithm, top_level, objects, max_depth, abort_rate, max_steps
    )
    return _map_specs(specs, jobs)


def record_corpus(
    seeds: Sequence[int],
    outputs: Sequence[Union[str, Path]],
    algorithm: str = "moss",
    top_level: int = 4,
    objects: int = 3,
    max_depth: int = 2,
    abort_rate: float = 0.0,
    max_steps: int = 10_000,
    jobs: int = 1,
    metrics: Optional[MetricsRegistry] = None,
) -> List[Tuple[str, int]]:
    """Simulate and write one ``repro record`` JSON file per seed.

    ``outputs`` names the destination file for each seed.  Returns
    ``(path, events)`` pairs in seed order.  Workers write their own
    files, so the fan-out parallelises both the simulation and the
    serialization.  ``metrics`` records the fan-out (``parallel.jobs``,
    ``parallel.cases``) and the runs' counters, summed over the runs
    (:meth:`RunStats.merged`): the ``driver.*``/``controller.*`` names a
    single ``repro record`` publishes.
    """
    specs = _make_specs(
        seeds,
        algorithm,
        top_level,
        objects,
        max_depth,
        abort_rate,
        max_steps,
        outputs,
    )
    runs = _map_specs(specs, jobs)
    if metrics is not None:
        metrics.set_gauge("parallel.jobs", min(jobs, len(specs)))
        metrics.inc("parallel.cases", len(specs))
        RunStats.merged([stats for _, _, stats in runs]).record(metrics)
    return [(path, events) for path, events, _ in runs]
