"""A validation battery for user-defined generic object algorithms.

The paper's modularity promise cuts both ways: anyone may plug in their
own concurrency control/recovery object, and *should then validate it
the way this library validates Moss locking and undo logging*.  This
module packages that battery:

* randomized driver runs across seeds, policies and abort rates, each
  behavior judged by the Theorem 8/19 certifier (with witness);
* simple-behavior well-formedness of every produced run;
* the completion-order check (the Propositions 16/24 proof argument) —
  reported but not required, since a correct algorithm may serialise in
  an order other than completion order (MVTO legitimately fails it);
* small-instance cross-examination against the brute-force oracle;
* a recovery probe (:func:`recovery_problem`): after a top-level
  writer's access is answered and the writer aborts, a later access
  must be answered with the value the spec gives without the write.
  The runs check safety only, and an object that never undoes an
  aborted write may stay safe by blocking every later access for good.

Returns a structured :class:`ValidationReport`; `passed` is the overall
verdict.  See ``docs/TUTORIAL.md`` for the data-type-level checks that
complement this system-level battery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..core.actions import Create, InformAbort, InformCommit, RequestCommit
from ..core.completion_order import edges_respect_completion_order
from ..core.correctness import certify
from ..core.names import Access, ObjectName, SystemType, TransactionName
from ..core.oracle import oracle_serially_correct
from ..core.events import serial_projection
from ..sim.driver import run_system
from ..sim.faults import AbortInjector
from ..sim.policies import EagerInformPolicy, RandomPolicy
from ..sim.workload import ObjectKind, RWKind, WorkloadConfig, generate_workload
from .system import ObjectFactory, make_generic_system

__all__ = [
    "RunOutcome",
    "ValidationReport",
    "recovery_problem",
    "validate_object_algorithm",
]


@dataclass
class RunOutcome:
    """The judgement of one validation run."""

    seed: int
    policy: str
    abort_rate: float
    certified: bool
    witness_ok: bool
    simple_ok: bool
    completion_order_ok: bool
    #: None when not attempted (instance too big) or inconclusive
    oracle_ok: Optional[bool]
    detail: str = ""
    #: the oracle search ran out of ``oracle_budget`` orders: inconclusive
    oracle_truncated: bool = False


@dataclass
class ValidationReport:
    """Aggregate result of :func:`validate_object_algorithm`."""

    outcomes: List[RunOutcome] = field(default_factory=list)
    #: what :func:`recovery_problem` found, or None
    recovery: Optional[str] = None

    @property
    def passed(self) -> bool:
        """All runs certified, witnesses valid, inputs well-formed, no
        oracle disagreement, and the object recovered from an abort
        (completion order is informational only)."""
        return self.recovery is None and all(
            o.certified and o.witness_ok and o.simple_ok and o.oracle_ok is not False
            for o in self.outcomes
        )

    @property
    def completion_order_always_held(self) -> bool:
        """True when every run's SG edges sat inside the completion order —
        evidence the algorithm serialises by completion, like Moss/undo."""
        return all(o.completion_order_ok for o in self.outcomes)

    def failures(self) -> List[RunOutcome]:
        """The outcomes that make :attr:`passed` false."""
        return [
            o
            for o in self.outcomes
            if not (o.certified and o.witness_ok and o.simple_ok)
            or o.oracle_ok is False
        ]

    def summary(self) -> str:
        """One-paragraph human summary."""
        verdict = "PASSED" if self.passed else "FAILED"
        completion = (
            "completion-order serialisation held throughout"
            if self.completion_order_always_held
            else "some runs serialise outside completion order (not an error)"
        )
        recovery = "" if self.recovery is None else f"; recovery: {self.recovery}"
        inconclusive = sum(o.oracle_truncated for o in self.outcomes)
        return (
            f"{verdict}: {len(self.outcomes)} runs, "
            f"{len(self.failures())} failing, {inconclusive} inconclusive "
            f"(oracle budget spent){recovery}; {completion}."
        )


def _revealing_ops(kind: ObjectKind, spec: Any) -> Optional[Tuple[Any, Any]]:
    """Two of ``kind``'s operations, ``(write, later)``, such that
    ``later`` returns another value after ``write`` than from the
    initial state; None if a sample of them holds no such pair."""
    rng = random.Random(0)
    ops: List[Any] = []
    for _ in range(64):
        op = kind.sample_op(rng)
        if op not in ops:
            ops.append(op)
    for write in ops:
        written, _ = spec.apply(spec.initial, write)
        for later in ops:
            if spec.apply(written, later)[1] != spec.apply(spec.initial, later)[1]:
                return write, later
    return None


def recovery_problem(
    factory: ObjectFactory, kind: Optional[ObjectKind] = None
) -> Optional[str]:
    """Drive one object of ``factory`` through an abort; None if it recovers.

    Top-level ``T0/w``'s access ``T0/w/a`` is answered and informed
    committed; then ``T0/w`` aborts and the object is informed.  Top-
    level ``T0/r``'s access ``T0/r/a``, created next, must be enabled
    with the value the spec gives it without the aborted write.  Returns
    what went wrong instead.  A kind none of whose sampled operations
    reveals a write cannot show a missing recovery, and passes.
    """
    kind = kind if kind is not None else RWKind()
    spec = kind.make_spec(random.Random(0))
    ops = _revealing_ops(kind, spec)
    if ops is None:
        return None
    write, later = ops
    obj = ObjectName("X")
    writer, reader = TransactionName(("w",)), TransactionName(("r",))
    written, read = writer.child("a"), reader.child("a")
    system_type = SystemType({obj: spec})
    system_type.register_access(written, Access(obj, write))
    system_type.register_access(read, Access(obj, later))
    automaton = factory(obj, system_type)
    state = automaton.effect(automaton.initial_state(), Create(written))
    answer = next(
        (a for a in automaton.enabled_outputs(state) if a.transaction == written), None
    )
    if answer is None:
        return f"{written} ({write}) is never answered"
    for action in (answer, InformCommit(obj, written), InformAbort(obj, writer)):
        state = automaton.effect(state, action)
    state = automaton.effect(state, Create(read))
    expected = RequestCommit(read, spec.apply(spec.initial, later)[1])
    answers = [a for a in automaton.enabled_outputs(state) if a.transaction == read]
    if not answers:
        return (
            f"after {writer} aborted, {read} ({later}) is blocked; "
            "the aborted write was not undone"
        )
    if answers != [expected]:
        return (
            f"after {writer} aborted, {read} ({later}) returns "
            f"{answers[0].value!r}, not {expected.value!r}"
        )
    return None


def validate_object_algorithm(
    factory: ObjectFactory,
    kind: Optional[ObjectKind] = None,
    seeds: Sequence[int] = range(5),
    abort_rates: Sequence[float] = (0.0, 0.2),
    top_level: int = 4,
    objects: int = 2,
    max_depth: int = 2,
    max_steps: int = 6000,
    oracle_budget: int = 2000,
) -> ValidationReport:
    """Run the standard validation battery against an object algorithm.

    ``factory`` builds the generic object (``factory(obj, system_type)``);
    ``kind`` supplies workloads whose specs the factory accepts (defaults
    to read/write objects).  Small instances are additionally checked
    against the brute-force oracle, and the object must pass the
    recovery probe (:func:`recovery_problem`).
    """
    from ..serial.simple_db import check_simple_behavior

    kind = kind if kind is not None else RWKind()
    report = ValidationReport()
    for abort_rate in abort_rates:
        for seed in seeds:
            config = WorkloadConfig(
                seed=seed,
                top_level=top_level,
                objects=objects,
                max_depth=max_depth,
                kind=kind,
            )
            system_type, programs = generate_workload(config)
            system = make_generic_system(system_type, programs, factory)
            policy_name = "eager" if seed % 2 == 0 else "random"
            base = (
                EagerInformPolicy(seed=seed)
                if policy_name == "eager"
                else RandomPolicy(seed)
            )
            policy = (
                AbortInjector(base, abort_rate=abort_rate, seed=seed)
                if abort_rate
                else base
            )
            result = run_system(
                system, policy, system_type, max_steps=max_steps,
                resolve_deadlocks=True,
            )
            serial = serial_projection(result.behavior)
            certificate = certify(result.behavior, system_type)
            oracle_ok: Optional[bool] = None
            truncated = False
            if top_level <= 4 and certificate.certified:
                oracle = oracle_serially_correct(
                    result.behavior, system_type, max_orders=oracle_budget
                )
                # a search that ran out of budget is inconclusive, not a no
                truncated = oracle.truncated
                oracle_ok = None if truncated else oracle.correct
            detail = "" if certificate.certified else certificate.explain()
            report.outcomes.append(
                RunOutcome(
                    seed=seed,
                    policy=policy_name,
                    abort_rate=abort_rate,
                    certified=certificate.certified,
                    witness_ok=not certificate.witness_problems,
                    simple_ok=not check_simple_behavior(serial, system_type),
                    completion_order_ok=not edges_respect_completion_order(
                        serial, certificate.graph
                    ),
                    oracle_ok=oracle_ok,
                    detail=detail,
                    oracle_truncated=truncated,
                )
            )
    report.recovery = recovery_problem(factory, kind)
    return report
