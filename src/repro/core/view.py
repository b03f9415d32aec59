"""The ``view`` operator and the Serializability Theorem (Section 2.3.2).

``view(beta, T, R, X)`` is the fundamental sequence of the
Serializability Theorem (Theorem 2 of the paper, imported from [11]):
the operations of accesses to ``X`` that are visible to ``T`` in
``beta``, ordered by ``R_trans`` on their transaction components, and
rendered as a serial-object behavior via ``perform``.

:func:`serializability_theorem_applies` is the executable form of
Theorem 2's hypothesis: ``T`` not an orphan, ``R`` suitable for
``beta`` and ``T``, and every object's view legal for its serial
specification.  When it returns an empty problem list, ``beta`` is
serially correct for ``T`` — the statement Theorem 8/19's proof reduces
to, and the test suite checks that reduction explicitly (the order
obtained by topologically sorting an acyclic ``SG(beta)`` always
satisfies these hypotheses when the behavior has appropriate return
values).
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import List, Optional, Sequence

from .actions import Action, Behavior, RequestCommit
from .events import StatusIndex, visible_projection
from .history import HistoryIndex
from .names import ObjectName, SystemType, TransactionName
from .operations import Operation, operation_payloads, perform
from .sibling_order import SiblingOrder, is_suitable

__all__ = ["view", "serializability_theorem_applies"]


def view(
    behavior: Sequence[Action],
    to: TransactionName,
    order: SiblingOrder,
    obj: ObjectName,
    system_type: SystemType,
    index: Optional[StatusIndex] = None,
) -> Behavior:
    """``view(beta, T, R, X)``: the R-ordered visible operations, performed.

    Requires ``order`` to totally order (via ``R_trans``) the accesses
    involved; suitability condition 1 guarantees that.  Raises
    ``ValueError`` when two distinct accesses are unordered.
    """
    index = index if index is not None else StatusIndex(behavior)
    visible = visible_projection(behavior, to, index)
    ops: List[Operation] = [
        Operation(action.transaction, action.value)
        for action in visible
        if isinstance(action, RequestCommit)
        and system_type.is_access(action.transaction)
        and system_type.object_of(action.transaction) == obj
    ]

    def compare(first: Operation, second: Operation) -> int:
        if first.transaction == second.transaction:
            return 0
        if order.trans_holds(first.transaction, second.transaction):
            return -1
        if order.trans_holds(second.transaction, first.transaction):
            return 1
        raise ValueError(
            f"sibling order does not relate {first.transaction} "
            f"and {second.transaction}"
        )

    ops.sort(key=cmp_to_key(compare))
    return perform(ops)


def serializability_theorem_applies(
    behavior: Sequence[Action],
    to: TransactionName,
    order: SiblingOrder,
    system_type: SystemType,
    index: Optional[StatusIndex] = None,
) -> List[str]:
    """Check the hypotheses of Theorem 2 for ``behavior``, ``to``, ``order``.

    Returns problem descriptions; an empty list means the theorem
    applies and ``behavior`` is serially correct for ``to``.  One shared
    :class:`repro.core.history.HistoryIndex` (built here unless passed
    in) serves the orphan test, the suitability check, and every
    per-object view.
    """
    problems: List[str] = []
    if index is None:
        index = HistoryIndex(behavior, system_type)
    if index.is_orphan(to):
        problems.append(f"{to} is an orphan in the behavior")
    if not is_suitable(order, behavior, to, index):
        problems.append("the sibling order is not suitable")
    for obj in system_type.object_names():
        try:
            object_view = view(behavior, to, order, obj, system_type, index)
        except ValueError as exc:
            problems.append(f"object {obj}: {exc}")
            continue
        ops = [
            Operation(action.transaction, action.value)
            for action in object_view
            if isinstance(action, RequestCommit)
        ]
        pairs = operation_payloads(ops, system_type)
        if not system_type.spec(obj).is_legal(pairs):
            problems.append(
                f"object {obj}: view is not a behavior of its serial spec"
            )
    return problems
