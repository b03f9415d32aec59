"""Appropriate return values, and the "current"/"safe" sufficient conditions.

Sections 3.2, 3.3 and 6.1 of the paper.  A simple behavior ``beta`` has
*appropriate return values* (ARV) when, for every object ``X``,
``perform(operations(visible(beta, T0)|X))`` is a behavior of the serial
object ``S_X``.  For read/write objects this unfolds (Lemma 5) into the
concrete condition that every visible write returns ``OK`` and every
visible read returns the final value of the visible prefix before it.

Section 3.3 gives the *current* and *safe* per-event conditions, which
can be checked at the moment a REQUEST_COMMIT occurs and which jointly
imply ARV (Lemma 6).  All variants are implemented here so the theory's
internal implications can be tested, not just assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from .actions import Action, RequestCommit
from .events import StatusIndex, visible_projection
from .names import ROOT, ObjectName, SystemType, TransactionName
from .operations import operation_payloads, operations_of_object
from .rw_semantics import (
    OK,
    clean_final_value,
    clean_last_write,
    final_value,
    is_read_access,
    is_write_access,
)

__all__ = [
    "ReturnValueViolation",
    "has_appropriate_return_values",
    "check_appropriate_return_values",
    "has_appropriate_return_values_rw",
    "is_current",
    "is_safe",
    "check_current_and_safe",
]


@dataclass(frozen=True)
class ReturnValueViolation:
    """Diagnostic describing why a behavior fails a return-value condition."""

    obj: ObjectName
    transaction: Optional[TransactionName]
    reason: str

    def __str__(self) -> str:
        where = f" at access {self.transaction}" if self.transaction else ""
        return f"object {self.obj}{where}: {self.reason}"


def check_appropriate_return_values(
    behavior: Sequence[Action],
    system_type: SystemType,
    index: Optional[StatusIndex] = None,
) -> List[ReturnValueViolation]:
    """The general ARV definition (Section 6.1), with diagnostics.

    For every object ``X``, replays ``operations(visible(beta, T0)|X)``
    against the object's serial specification.  Returns a (possibly
    empty) list of violations.
    """
    index = index if index is not None else StatusIndex(behavior)
    visible = visible_projection(behavior, ROOT, index)
    violations: List[ReturnValueViolation] = []
    for obj in system_type.object_names():
        ops = operations_of_object(visible, obj, system_type)
        pairs = operation_payloads(ops, system_type)
        spec = system_type.spec(obj)
        violation = _first_illegal(spec, obj, ops, pairs)
        if violation is not None:
            violations.append(violation)
    return violations


def _first_illegal(
    spec: Any,
    obj: ObjectName,
    ops: Sequence[Any],
    pairs: Sequence[Tuple[Any, Any]],
) -> Optional[ReturnValueViolation]:
    """The first offending access of an operation sequence, if any.

    One linear replay via the spec's ``apply`` protocol; specs exposing
    only ``is_legal`` fall back to prefix replays.
    """
    apply = getattr(spec, "apply", None)
    if apply is not None:
        state = spec.initial
        for position, (op, value) in enumerate(pairs):
            state, expected = apply(state, op)
            if value != expected:
                return ReturnValueViolation(
                    obj,
                    ops[position].transaction,
                    f"operation {pairs[position]!r} is illegal after "
                    f"{position} visible operation(s)",
                )
        return None
    for cut in range(1, len(pairs) + 1):
        if not spec.is_legal(pairs[:cut]):
            return ReturnValueViolation(
                obj,
                ops[cut - 1].transaction,
                f"operation {pairs[cut - 1]!r} is illegal after "
                f"{cut - 1} visible operation(s)",
            )
    return None


def has_appropriate_return_values(
    behavior: Sequence[Action],
    system_type: SystemType,
    index: Optional[StatusIndex] = None,
) -> bool:
    """True iff ``behavior`` has appropriate return values (general form)."""
    return not check_appropriate_return_values(behavior, system_type, index)


def has_appropriate_return_values_rw(
    behavior: Sequence[Action],
    system_type: SystemType,
    index: Optional[StatusIndex] = None,
) -> bool:
    """The concrete read/write ARV definition of Section 3.2.

    Every visible write access must return ``OK``; every visible read
    access must return ``final-value(delta, X)`` where ``delta`` is the
    prefix of ``visible(beta, T0)`` preceding it.  By Lemma 5 this agrees
    with :func:`has_appropriate_return_values` on RW system types — a
    fact the test suite checks.
    """
    index = index if index is not None else StatusIndex(behavior)
    visible = visible_projection(behavior, ROOT, index)
    for position, action in enumerate(visible):
        if not isinstance(action, RequestCommit):
            continue
        name = action.transaction
        if is_write_access(name, system_type):
            if action.value != OK:
                return False
        elif is_read_access(name, system_type):
            obj = system_type.object_of(name)
            expected = final_value(visible[:position], obj, system_type)
            if action.value != expected:
                return False
    return True


def is_current(
    behavior: Sequence[Action],
    position: int,
    system_type: SystemType,
) -> bool:
    """Is the read REQUEST_COMMIT at ``position`` *current* in ``behavior``?

    The return value must equal ``clean-final-value`` of the prefix
    preceding the event (Section 3.3).  ``behavior`` should be a sequence
    of serial actions, typically ``serial(beta)``.
    """
    action = behavior[position]
    if not isinstance(action, RequestCommit) or not is_read_access(
        action.transaction, system_type
    ):
        raise ValueError(f"event {position} is not a read REQUEST_COMMIT: {action}")
    obj = system_type.object_of(action.transaction)
    prefix = behavior[:position]
    return action.value == clean_final_value(prefix, obj, system_type)


def is_safe(
    behavior: Sequence[Action],
    position: int,
    system_type: SystemType,
) -> bool:
    """Is the read REQUEST_COMMIT at ``position`` *safe* in ``behavior``?

    ``clean-last-write`` of the preceding prefix must be undefined or
    visible to the reader in that prefix — the "no dirty reads"
    condition of Section 3.3.
    """
    action = behavior[position]
    if not isinstance(action, RequestCommit) or not is_read_access(
        action.transaction, system_type
    ):
        raise ValueError(f"event {position} is not a read REQUEST_COMMIT: {action}")
    obj = system_type.object_of(action.transaction)
    prefix = behavior[:position]
    writer = clean_last_write(prefix, obj, system_type)
    if writer is None:
        return True
    return StatusIndex(prefix).is_visible(writer, action.transaction)


def check_current_and_safe(
    behavior: Sequence[Action],
    system_type: SystemType,
    index: Optional[StatusIndex] = None,
) -> List[ReturnValueViolation]:
    """Check the hypotheses of Lemma 6 on a sequence of serial actions.

    Condition (1): every write REQUEST_COMMIT in ``visible(beta, T0)``
    returns ``OK``.  Condition (2): every read REQUEST_COMMIT in
    ``visible(beta, T0)`` is current and safe *in beta*.  An empty result
    means Lemma 6 applies and the behavior has appropriate return values.
    """
    index = index if index is not None else StatusIndex(behavior)
    violations: List[ReturnValueViolation] = []
    for position, action in enumerate(behavior):
        if not isinstance(action, RequestCommit):
            continue
        name = action.transaction
        if not system_type.is_access(name):
            continue
        if not index.is_visible(name, ROOT):
            continue
        obj = system_type.object_of(name)
        if is_write_access(name, system_type):
            if action.value != OK:
                violations.append(
                    ReturnValueViolation(obj, name, f"write returned {action.value!r}")
                )
        elif is_read_access(name, system_type):
            if not is_current(behavior, position, system_type):
                violations.append(
                    ReturnValueViolation(obj, name, "read is not current")
                )
            if not is_safe(behavior, position, system_type):
                violations.append(
                    ReturnValueViolation(obj, name, "read is not safe (dirty data)")
                )
    return violations
