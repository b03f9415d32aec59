"""The ``pipeline`` workload: the ``repro demo`` / ``repro record`` path.

A closed loop with one client.  Each case runs
``generate_workload -> make_generic_system -> run_system -> certify`` on
a small nested system (8 objects, depth 2, deadlocks resolved).  Cases
alternate Moss' locking over read/write objects with undo logging over
counter, bank-account and map objects; the case seed's parity picks the
scheduler (even: ``EagerInformPolicy``, odd: ``AbortInjector`` at rate
0.02 over ``RandomPolicy``), and the case schedule is arranged so that
both algorithms meet both schedulers and every size from 16 to 32
top-level transactions in every run.  Simulation does nearly all of the
work, so a change to the driver, the controller or the object automata
moves this workload and a change to ``certify`` should not.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from repro.automata.composition import Composition
from repro.core.correctness import Certificate, certify
from repro.core.events import serial_projection
from repro.generic.controller import GenericController
from repro.generic.objects import GenericObject
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import RunResult, run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import EagerInformPolicy, RandomPolicy, SchedulingPolicy
from repro.sim.programs import ProgramTransaction
from repro.sim.workload import (
    BankAccountKind,
    CounterKind,
    MapKind,
    RWKind,
    WorkloadConfig,
    generate_workload,
)
from repro.undo.logging import UndoLoggingObject

from measure import Digest, SpanRecorder, median, probe, scale

OBJECTS = 8
DEPTH = 2
ABORT_RATE = 0.02
MAX_STEPS = 100_000
#: top-level transaction counts, one per block of four cases
SIZES = (16, 20, 24, 28, 32)
KINDS = {
    "rw": RWKind,
    "counter": CounterKind,
    "bank": BankAccountKind,
    "map": MapKind,
}
UNDO_KINDS = ("counter", "bank", "map")
#: cases planned per run, far more than a run completes
PLANNED = 2_000
#: leading cases whose behaviors enter the input digest (every run
#: completes them)
DIGESTED = 4

CERTIFY = "core.correctness.certify"
LAYER_OF_OBJECT = {"moss": "locking.moss", "undo": "undo.logging"}


@dataclass(frozen=True)
class Case:
    """One planned simulate-and-certify case."""

    algorithm: str  # "moss" or "undo"
    kind: str  # key of KINDS
    top_level: int
    seed: int

    def config(self) -> WorkloadConfig:
        return WorkloadConfig(
            seed=self.seed,
            top_level=self.top_level,
            objects=OBJECTS,
            max_depth=DEPTH,
            kind=KINDS[self.kind](),
        )

    def policy(self) -> SchedulingPolicy:
        if self.seed % 2 == 0:
            return EagerInformPolicy(seed=self.seed)
        return AbortInjector(
            RandomPolicy(self.seed), abort_rate=ABORT_RATE, seed=self.seed
        )


def build(seed: int) -> List[Case]:
    """The case schedule of run ``seed``.

    Case ``i`` alternates the algorithm, its seed's parity (the
    scheduler) flips every two cases, and its size steps through
    :data:`SIZES` every four cases, so any stretch of 20 cases holds the
    same mix whatever the run seed.
    """
    cases = []
    for index in range(PLANNED):
        algorithm = ("moss", "undo")[index % 2]
        kind = "rw" if algorithm == "moss" else UNDO_KINDS[(index // 2) % 3]
        cases.append(
            Case(
                algorithm=algorithm,
                kind=kind,
                top_level=SIZES[(index // 4) % len(SIZES)],
                seed=seed * 100_000 + index // 2,
            )
        )
    return cases


def instrument(
    system: Composition, algorithm: str, recorder: SpanRecorder
) -> None:
    """Time every component's ``enabled_outputs``/``effect`` and the
    composition's ``effect`` by wrapping them on these instances."""
    for component in system.components:
        if isinstance(component, GenericController):
            layer = "generic.controller"
            component.enabled_aborts = recorder.wrap(  # type: ignore[method-assign]
                component.enabled_aborts, f"{layer}.enabled_aborts", consume=True
            )
        elif isinstance(component, GenericObject):
            layer = LAYER_OF_OBJECT[algorithm]
        elif isinstance(component, ProgramTransaction):
            layer = "sim.programs"
        else:
            raise TypeError(f"unexpected component {component!r}")
        component.enabled_outputs = recorder.wrap(  # type: ignore[method-assign]
            component.enabled_outputs, f"{layer}.enabled_outputs", consume=True
        )
        component.effect = recorder.wrap(  # type: ignore[method-assign]
            component.effect, f"{layer}.effect"
        )
    system.effect = recorder.wrap(  # type: ignore[method-assign]
        system.effect, "automata.composition.effect"
    )


def run_case(
    case: Case, recorder: Optional[SpanRecorder]
) -> Tuple[float, RunResult, Certificate]:
    """Simulate and certify one case; returns its time and outputs."""
    factory = MossRWLockingObject if case.algorithm == "moss" else UndoLoggingObject
    span = recorder.span if recorder is not None else _untraced
    start = time.perf_counter()
    with span("sim.workload.generate_workload"):
        system_type, programs = generate_workload(case.config())
    with span("generic.system.make_generic_system"):
        system = make_generic_system(system_type, programs, factory)
    if recorder is not None:
        instrument(system, case.algorithm, recorder)
    with span("sim.driver.run_system"):
        result = run_system(
            system, case.policy(), system_type,
            max_steps=MAX_STEPS, resolve_deadlocks=True,
        )
    with span(CERTIFY):
        certificate = certify(result.behavior, system_type)
    return time.perf_counter() - start, result, certificate


def _untraced(name: str) -> ContextManager[None]:
    return contextlib.nullcontext()


def measure(
    cases: List[Case], seconds: float, recorder: Optional[SpanRecorder]
) -> Dict[str, Any]:
    """Run cases in schedule order until ``seconds`` have been measured.

    Case times are scaled to the nominal machine speed by the probes
    taken before and after each case (see :mod:`measure`), and the run
    lasts ``seconds`` of scaled time, so that how many cases it runs, and
    so its mix of cases, does not depend on how loaded the machine is.
    """
    times: Dict[str, List[float]] = {"moss": [], "undo": []}
    events: Dict[str, int] = {"moss": 0, "undo": 0}
    steps = deadlock_aborts = top_level = top_committed = 0
    failures: List[str] = []
    digest = Digest()
    elapsed = wall = 0.0
    attempted = 0
    before = probe()
    for case in cases:
        if elapsed >= seconds:
            break
        seconds_taken, result, certificate = run_case(case, recorder)
        after = probe()
        scaled = seconds_taken * scale(before, after)
        before = after
        elapsed += scaled
        wall += seconds_taken
        attempted += 1
        serial = serial_projection(result.behavior)
        times[case.algorithm].append(scaled)
        events[case.algorithm] += len(serial)
        steps += result.stats.steps
        deadlock_aborts += result.stats.deadlock_aborts
        top_level += case.top_level
        top_committed += result.stats.top_level_committed
        if attempted <= DIGESTED:
            digest.add(repr(case))
            digest.add(repr(serial), len(serial))
        # Theorems 17 and 25: every behavior of these systems is
        # serially correct, and the certificate carries a valid witness
        if not certificate.certified or certificate.witness_problems or (
            certificate.witness is None
        ):
            failures.append(
                f"{case}: certified={certificate.certified} "
                f"witness_problems={certificate.witness_problems[:3]}"
            )
    all_times = times["moss"] + times["undo"]
    total_events = events["moss"] + events["undo"]
    rates = {
        algorithm: events[algorithm] / sum(times[algorithm])
        for algorithm in times
        if times[algorithm]
    }
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "wall_s": wall,
        "events_per_s": total_events / elapsed,
        "report": {
            "moss.events_per_s": (rates.get("moss", 0.0), "events/s"),
            "undo.events_per_s": (rates.get("undo", 0.0), "events/s"),
            "case_p50_ms": (median(all_times) * 1e3, "ms"),
            "raw.events_per_s": (total_events / wall, "events/s"),
            "machine.speed": (elapsed / wall, "ratio"),
            "cases": (attempted, "count"),
            "events": (total_events, "events"),
        },
        "digest": digest,
        "steps": steps,
        "deadlock_aborts": deadlock_aborts,
        "top_commit_ratio": top_committed / top_level if top_level else 0.0,
    }


def layer_metrics(
    outcome: Dict[str, Any], recorder: SpanRecorder, untraced: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-layer numbers of a traced ``measure`` call."""
    controller_calls = recorder.count(
        "generic.controller.enabled_outputs",
        "generic.controller.enabled_aborts",
        "generic.controller.effect",
    )
    simulate = recorder.seconds("sim.driver.run_system")
    certify_s = recorder.seconds(CERTIFY)
    return {
        "sim.workload.generate_s": recorder.seconds("sim.workload.generate_workload"),
        "generic.system.compose_s": recorder.seconds(
            "generic.system.make_generic_system"
        ),
        "sim.driver.self_s": recorder.self_seconds("sim.driver.run_system"),
        "sim.driver.steps": outcome["steps"],
        "sim.driver.deadlock_aborts": outcome["deadlock_aborts"],
        "sim.driver.top_commit_ratio": outcome["top_commit_ratio"],
        "generic.controller.enabled_outputs_s": recorder.seconds(
            "generic.controller.enabled_outputs"
        ),
        "generic.controller.enabled_aborts_s": recorder.seconds(
            "generic.controller.enabled_aborts"
        ),
        "generic.controller.effect_s": recorder.seconds("generic.controller.effect"),
        "generic.controller.calls": controller_calls,
        "automata.composition.effect_self_s": recorder.self_seconds(
            "automata.composition.effect"
        ),
        "locking.moss.s": recorder.seconds(
            "locking.moss.enabled_outputs", "locking.moss.effect"
        ),
        "undo.logging.s": recorder.seconds(
            "undo.logging.enabled_outputs", "undo.logging.effect"
        ),
        "sim.programs.s": recorder.seconds(
            "sim.programs.enabled_outputs", "sim.programs.effect"
        ),
        "core.correctness.certify_share": certify_s / (simulate + certify_s)
        if simulate + certify_s
        else 0.0,
    }
