"""Operations and the ``perform`` / ``operations`` translations.

An *operation* of an object ``X`` is a pair ``(T, v)`` where ``T`` is an
access to ``X`` and ``v`` a return value (Section 2.2).  The paper moves
back and forth between sequences of operations and the serial-object
behaviors they induce:

* ``perform(T, v) = CREATE(T) REQUEST_COMMIT(T, v)`` and its extension to
  sequences (:func:`perform`);
* ``operations(beta)`` extracts the operations corresponding to the
  REQUEST_COMMIT events of accesses in an event sequence
  (:func:`operations`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Set, Tuple

from .actions import Action, Behavior, Create, RequestCommit
from .names import ObjectName, SystemType, TransactionName

__all__ = [
    "Operation",
    "perform",
    "operations",
    "operations_of_object",
    "is_serial_object_well_formed",
    "operation_payloads",
]


@dataclass(frozen=True)
class Operation:
    """An operation ``(T, v)``: an access transaction paired with a value."""

    transaction: TransactionName
    value: Any

    def __str__(self) -> str:
        return f"({self.transaction}, {self.value!r})"


def perform(ops: Sequence[Operation]) -> Behavior:
    """``perform(xi)``: the action sequence CREATE/REQUEST_COMMIT per operation."""
    actions: List[Action] = []
    for op in ops:
        actions.append(Create(op.transaction))
        actions.append(RequestCommit(op.transaction, op.value))
    return tuple(actions)


def operations(
    behavior: Sequence[Action], system_type: SystemType
) -> Tuple[Operation, ...]:
    """``operations(beta)``: operations of the access REQUEST_COMMIT events."""
    return tuple(
        Operation(action.transaction, action.value)
        for action in behavior
        if isinstance(action, RequestCommit) and system_type.is_access(action.transaction)
    )


def operations_of_object(
    behavior: Sequence[Action], obj: ObjectName, system_type: SystemType
) -> Tuple[Operation, ...]:
    """Operations in ``behavior`` whose access touches the object ``obj``."""
    return tuple(
        op
        for op in operations(behavior, system_type)
        if system_type.object_of(op.transaction) == obj
    )


def is_serial_object_well_formed(behavior: Sequence[Action]) -> bool:
    """Check serial object well-formedness (Section 2.2.2).

    The sequence must be a prefix of
    ``CREATE(T1) REQUEST_COMMIT(T1, v1) CREATE(T2) REQUEST_COMMIT(T2, v2) ...``
    with pairwise distinct transaction names.
    """
    seen: Set[TransactionName] = set()
    pending: Optional[TransactionName] = None
    for action in behavior:
        if isinstance(action, Create):
            if pending is not None or action.transaction in seen:
                return False
            pending = action.transaction
            seen.add(action.transaction)
        elif isinstance(action, RequestCommit):
            if pending != action.transaction:
                return False
            pending = None
        else:
            return False
    return True


def operation_payloads(
    ops: Sequence[Operation], system_type: SystemType
) -> Tuple[Tuple[Any, Any], ...]:
    """Resolve operations to ``(op_descriptor, value)`` pairs via the system type.

    Serial specifications (read/write registers, arbitrary data types)
    speak in operation descriptors, not transaction names; this is the
    bridge.
    """
    return tuple(
        (system_type.access(op.transaction).op, op.value) for op in ops
    )
