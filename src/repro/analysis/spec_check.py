"""Spec-soundness checker: prove the commutativity specs at lint time.

The serialization-graph construction delegates every conflict verdict to
an object specification, and two engine layers *assume* structural
properties of those specs that no single call site checks:

* ``conflicts`` must be **symmetric** (edges are emitted for ordered
  pairs; an asymmetric predicate would make the graph depend on
  enumeration order);
* ``is_read_only(op1) and is_read_only(op2)`` must imply
  ``not conflicts(op1, v1, op2, v2)`` — the exact assumption behind the
  batch engine's writer-boundary pair scan for generic specs
  (:meth:`repro.core.columnar.ColumnarHistory.conflict_edge_ids`) and
  the online certifier, neither of which consults the spec for
  read/read pairs;
* an ``is_read_only`` claim must be true: the operation preserves every
  reachable state;
* the claimed table must **agree with the definition** of backward
  commutativity (:mod:`repro.spec.commutativity`, Section 6.1) on
  exhaustive bounded prefixes — for the exact built-in types in both
  directions, and for deliberately conservative relations (the classical
  :class:`repro.core.rw_semantics.RWSpec`) in the sound direction:
  a claimed *commute* must never violate the definition.

:func:`check_all_builtin_specs` certifies every registered spec and
returns machine-readable :class:`SpecReport` objects; ``repro lint``
folds the problems into its findings (rules S001–S003).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.rw_semantics import ReadOp, RWSpec, WriteOp
from ..spec.builtin import (
    BalanceRead,
    BankAccountType,
    CounterInc,
    CounterRead,
    CounterType,
    Deposit,
    Dequeue,
    Enqueue,
    MapGet,
    MapPut,
    MapRemove,
    MapType,
    QueueType,
    RegisterType,
    RegRead,
    RegWrite,
    SetInsert,
    SetMember,
    SetRemove,
    SetType,
    Withdraw,
)
from ..spec.commutativity import (
    commutes_backward_on_prefix,
    exhaustive_prefixes,
    find_commutativity_counterexample,
)
from ..spec.datatype import DataType

__all__ = [
    "SpecDomain",
    "SpecProblem",
    "SpecReport",
    "builtin_spec_domains",
    "check_spec",
    "check_all_builtin_specs",
]

Pair = Tuple[Any, Any]

#: problem kind -> the lint rule id it surfaces under
PROBLEM_RULES: Dict[str, str] = {
    "symmetry": "S001",
    "read_only_claim": "S002",
    "read_only_conflict": "S002",
    "table": "S003",
}


@dataclass(frozen=True)
class SpecProblem:
    """One soundness violation of a specification."""

    spec: str
    kind: str  # "symmetry" | "read_only_claim" | "read_only_conflict" | "table"
    detail: str

    @property
    def rule(self) -> str:
        """The lint rule id this problem surfaces under (S001–S003)."""
        return PROBLEM_RULES.get(self.kind, "S000")

    def to_dict(self) -> Dict[str, str]:
        """The JSON shape emitted by ``repro lint --json``."""
        return {
            "spec": self.spec,
            "kind": self.kind,
            "rule": self.rule,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return f"spec:{self.spec}: {self.rule} [{self.kind}] {self.detail}"


@dataclass
class SpecReport:
    """The certification result for one specification domain."""

    spec: str
    exact: bool
    pairs: int = 0
    prefixes: int = 0
    problems: List[SpecProblem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return not self.problems

    def to_dict(self) -> Dict[str, object]:
        """The JSON shape emitted by ``repro lint --json``."""
        return {
            "spec": self.spec,
            "exact": self.exact,
            "pairs": self.pairs,
            "prefixes": self.prefixes,
            "ok": self.ok,
            "problems": [problem.to_dict() for problem in self.problems],
        }


@dataclass(frozen=True)
class SpecDomain:
    """A spec plus the bounded operation domain it is verified over.

    ``exact=True`` demands agreement with the definition in both
    directions (claimed conflicts need a witness); ``exact=False``
    permits a conservative relation and only rejects false commutes.
    """

    name: str
    spec: Any
    operations: Tuple[Any, ...]
    max_prefix: int = 3
    exact: bool = True


class _SpecView(DataType):
    """Adapt any ``conflicts``-protocol spec to the ``DataType`` protocol.

    :class:`repro.core.rw_semantics.RWSpec` (and user specs following
    its protocol) expose ``initial``/``apply``/``conflicts`` but not the
    ``DataType`` machinery the definitional checker drives
    (``replay``/``results_along`` raising ``IllegalOperation``).  The
    view forwards the former and inherits the latter.
    """

    def __init__(self, spec: Any, name: str) -> None:
        self._spec = spec
        self.type_name = name

    @property
    def initial(self) -> Any:
        """The wrapped spec's initial state."""
        return self._spec.initial

    def apply(self, state: Any, op: Any) -> Tuple[Any, Any]:
        """Forward to the wrapped spec."""
        return self._spec.apply(state, op)

    def commutes_backward(self, op1: Any, value1: Any, op2: Any, value2: Any) -> bool:
        """The complement of the wrapped spec's ``conflicts``."""
        return not self._spec.conflicts(op1, value1, op2, value2)

    def is_read_only(self, op: Any) -> bool:
        """Forward when the wrapped spec has the predicate; else False."""
        probe = getattr(self._spec, "is_read_only", None)
        return bool(probe(op)) if probe is not None else False


def _as_datatype(domain: SpecDomain) -> DataType:
    if isinstance(domain.spec, DataType):
        return domain.spec
    return _SpecView(domain.spec, domain.name)


def builtin_spec_domains() -> List[SpecDomain]:
    """The registered specs with their bounded verification domains.

    Mirrors the domains the definitional test suite uses
    (``tests/test_commutativity.py``), plus the classical
    :class:`RWSpec` relation, which is conservative by design
    (``exact=False``: same-value writes conflict classically but
    commute exactly — see ``TestClassicalIsCoarser``).
    """
    return [
        SpecDomain(
            "register", RegisterType(initial=0), (RegWrite(1), RegWrite(2), RegRead())
        ),
        SpecDomain(
            "counter",
            CounterType(initial=0),
            (CounterInc(1), CounterInc(-1), CounterInc(0), CounterRead()),
        ),
        SpecDomain(
            "set",
            SetType(),
            (SetInsert(1), SetInsert(2), SetRemove(1), SetMember(1), SetMember(2)),
        ),
        SpecDomain(
            "bank-account",
            BankAccountType(initial=10),
            (Deposit(5), Withdraw(5), Withdraw(20), BalanceRead()),
        ),
        SpecDomain("queue", QueueType(), (Enqueue("a"), Enqueue("b"), Dequeue())),
        SpecDomain(
            "map",
            MapType(),
            (MapPut("k", 1), MapPut("k", 2), MapGet("k"), MapRemove("k"), MapGet("j")),
        ),
        SpecDomain(
            "rw",
            RWSpec(initial=0),
            (WriteOp(1), WriteOp(2), ReadOp()),
            exact=False,
        ),
    ]


def _jointly_realizable(
    datatype: DataType,
    operations: Sequence[Any],
    prefixes: Sequence[Tuple[Pair, ...]],
) -> Tuple[List[Tuple[Pair, Pair]], List[Pair], List[Any]]:
    """Adjacent-realisable combos, flat ``(op, value)`` pairs, and states.

    A combo ``(first, second)`` is realisable when the two operations
    can legally return those values back to back after some prefix —
    exactly the combinations the definitional hypothesis can fire on,
    so a claimed conflict among them must have a witness within the
    prefix set (unrealisable combos are vacuously fine and skipped).
    """
    combos = set()
    states = []
    seen_states = set()
    for prefix in prefixes:
        state = datatype.replay(prefix)
        if state not in seen_states:
            seen_states.add(state)
            states.append(state)
        for first in operations:
            mid_state, value1 = datatype.apply(state, first)
            for second in operations:
                _, value2 = datatype.apply(mid_state, second)
                combos.add(((first, value1), (second, value2)))
    ordered = sorted(combos, key=repr)
    flat = sorted({pair for combo in ordered for pair in combo}, key=repr)
    return ordered, flat, states


def check_spec(domain: SpecDomain) -> SpecReport:
    """Certify one specification over its bounded domain."""
    datatype = _as_datatype(domain)
    report = SpecReport(spec=domain.name, exact=domain.exact)
    prefixes = exhaustive_prefixes(datatype, domain.operations, domain.max_prefix)
    combos, pairs, states = _jointly_realizable(
        datatype, domain.operations, prefixes
    )
    report.prefixes = len(prefixes)
    report.pairs = len(pairs)

    # -- is_read_only claims: the op must preserve every reachable state --
    for op in domain.operations:
        if not datatype.is_read_only(op):
            continue
        for state in states:
            new_state, _ = datatype.apply(state, op)
            if not datatype.states_equivalent(new_state, state):
                report.problems.append(
                    SpecProblem(
                        domain.name,
                        "read_only_claim",
                        f"is_read_only({op}) claimed, but it maps state "
                        f"{state!r} to {new_state!r}",
                    )
                )
                break

    # -- symmetry and the read/read no-conflict fast-path assumption ------
    # Checked over *all* pair combinations, realisable or not: the engine
    # layers may consult the predicate with any value combination.
    for i, first in enumerate(pairs):
        for second in pairs[i:]:
            forward = datatype.commutes_backward(
                first[0], first[1], second[0], second[1]
            )
            backward = datatype.commutes_backward(
                second[0], second[1], first[0], first[1]
            )
            if forward != backward:
                report.problems.append(
                    SpecProblem(
                        domain.name,
                        "symmetry",
                        f"conflicts({first}, {second}) = {not forward} but "
                        f"conflicts({second}, {first}) = {not backward}",
                    )
                )
                continue
            if (
                datatype.is_read_only(first[0])
                and datatype.is_read_only(second[0])
                and not forward
            ):
                report.problems.append(
                    SpecProblem(
                        domain.name,
                        "read_only_conflict",
                        f"read-only pair {first} / {second} claimed to "
                        "conflict — breaks the engines' read/read skip",
                    )
                )

    # -- agreement with the Section 6.1 definition ------------------------
    # Checked over adjacent-realisable combos only: a claimed conflict
    # among them must exhibit a witness; unrealisable combos are vacuous.
    seen = set()
    for first, second in combos:
        key = frozenset((first, second))
        if key in seen:
            continue
        seen.add(key)
        claimed = datatype.commutes_backward(
            first[0], first[1], second[0], second[1]
        )
        if claimed != datatype.commutes_backward(
            second[0], second[1], first[0], first[1]
        ):
            continue  # already reported as a symmetry problem
        if domain.exact:
            counterexample = find_commutativity_counterexample(
                datatype, first, second, prefixes
            )
            if counterexample is not None:
                report.problems.append(
                    SpecProblem(domain.name, "table", str(counterexample))
                )
        elif claimed:
            violation = _false_commute(datatype, first, second, prefixes)
            if violation is not None:
                report.problems.append(
                    SpecProblem(domain.name, "table", violation)
                )
    return report


def _false_commute(
    datatype: DataType,
    first: Pair,
    second: Pair,
    prefixes: Sequence[Tuple[Pair, ...]],
) -> Optional[str]:
    """A definitional violation of a claimed commute, or None."""
    for prefix in prefixes:
        for a, b in ((first, second), (second, first)):
            reason = commutes_backward_on_prefix(datatype, prefix, a, b)
            if reason is not None:
                return (
                    f"claimed commute for {a} / {b} but after prefix of "
                    f"length {len(prefix)}: {reason}"
                )
    return None


def check_all_builtin_specs() -> List[SpecReport]:
    """Certify every registered built-in spec; see :func:`check_spec`."""
    return [check_spec(domain) for domain in builtin_spec_domains()]
