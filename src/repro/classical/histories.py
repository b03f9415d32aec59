"""Flat (unnested) transaction histories — the classical theory's raw material.

The classical serializability theory (Bernstein–Hadzilacos–Goodman,
Papadimitriou) works over *histories*: interleaved sequences of read and
write steps of flat transactions, with commit/abort markers.  This
module defines that representation, random history generation, and the
translation into nested-model behaviors (each classical transaction
becomes a child of ``T0`` whose accesses are its steps) used to check
that the paper's construction generalises the classical one (E5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Set, Tuple, Union

from ..core.actions import (
    Action,
    Behavior,
    Commit,
    Create,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from ..core.names import Access, ObjectName, SystemType, TransactionName
from ..core.rw_semantics import OK, ReadOp, RWSpec, WriteOp

__all__ = [
    "FlatRead",
    "FlatWrite",
    "FlatCommit",
    "FlatAbort",
    "FlatStep",
    "History",
    "committed_projection",
    "random_history",
    "history_to_nested_behavior",
]


@dataclass(frozen=True)
class FlatRead:
    txn: str
    obj: str

    def __str__(self) -> str:
        return f"r_{self.txn}[{self.obj}]"


@dataclass(frozen=True)
class FlatWrite:
    txn: str
    obj: str
    data: int = 0

    def __str__(self) -> str:
        return f"w_{self.txn}[{self.obj}]={self.data}"


@dataclass(frozen=True)
class FlatCommit:
    txn: str

    def __str__(self) -> str:
        return f"c_{self.txn}"


@dataclass(frozen=True)
class FlatAbort:
    txn: str

    def __str__(self) -> str:
        return f"a_{self.txn}"


FlatStep = Union[FlatRead, FlatWrite, FlatCommit, FlatAbort]
History = Tuple[FlatStep, ...]


def committed_projection(history: Sequence[FlatStep]) -> History:
    """The classical committed projection: steps of committed transactions."""
    committed = {step.txn for step in history if isinstance(step, FlatCommit)}
    return tuple(
        step
        for step in history
        if isinstance(step, (FlatRead, FlatWrite)) and step.txn in committed
    )


def random_history(
    transactions: int,
    objects: int,
    ops_per_transaction: int,
    seed: int = 0,
    write_probability: float = 0.5,
    commit_probability: float = 1.0,
) -> History:
    """A random interleaved flat history with commit markers at the end of
    each transaction's steps (abort markers with the complementary
    probability)."""
    rng = random.Random(seed)
    pending: Dict[str, int] = {f"T{i}": ops_per_transaction for i in range(transactions)}
    order: List[str] = [name for name, count in pending.items() for _ in range(count)]
    rng.shuffle(order)
    history: List[FlatStep] = []
    for txn in order:
        obj = f"x{rng.randrange(objects)}"
        if rng.random() < write_probability:
            history.append(FlatWrite(txn, obj, rng.randrange(100)))
        else:
            history.append(FlatRead(txn, obj))
        pending[txn] -= 1
        if pending[txn] == 0:
            if rng.random() < commit_probability:
                history.append(FlatCommit(txn))
            else:
                history.append(FlatAbort(txn))
    return tuple(history)


def history_to_nested_behavior(
    history: Sequence[FlatStep],
    initial_value: int = 0,
) -> Tuple[Behavior, SystemType]:
    """Encode a flat history as a depth-1 nested simple behavior.

    Each flat transaction ``T`` becomes a child of ``T0``; its i-th step
    becomes an access grandchild.  Read values follow the classical
    update-in-place assumption: a read returns the last value written to
    the object by any preceding step of a non-aborted transaction (the
    translation is meant for histories whose reads are consistent with
    that model, e.g. 2PL output).  Commit markers become access-to-root
    commit ceremonies so the accesses are visible to ``T0``.
    """
    objects = sorted({step.obj for step in history if hasattr(step, "obj")})
    specs = {ObjectName(name): RWSpec(initial=initial_value) for name in objects}
    system_type = SystemType(specs)
    aborted = {step.txn for step in history if isinstance(step, FlatAbort)}

    behavior: List[Action] = []
    created: Set[str] = set()
    step_counts: Dict[str, int] = {}
    access_names: Dict[str, List[TransactionName]] = {}
    current: Dict[str, int] = {name: initial_value for name in objects}

    for step in history:
        if isinstance(step, (FlatRead, FlatWrite)):
            txn_name = TransactionName((step.txn,))
            if step.txn not in created:
                created.add(step.txn)
                behavior.append(RequestCreate(txn_name))
                behavior.append(Create(txn_name))
            index = step_counts.get(step.txn, 0)
            step_counts[step.txn] = index + 1
            access = txn_name.child(f"op{index}")
            if isinstance(step, FlatWrite):
                system_type.register_access(
                    access, Access(ObjectName(step.obj), WriteOp(step.data))
                )
                value: Any = OK
                if step.txn not in aborted:
                    current[step.obj] = step.data
            else:
                system_type.register_access(
                    access, Access(ObjectName(step.obj), ReadOp())
                )
                value = current[step.obj]
            access_names.setdefault(step.txn, []).append(access)
            behavior.append(RequestCreate(access))
            behavior.append(Create(access))
            behavior.append(RequestCommit(access, value))
            behavior.append(Commit(access))
            behavior.append(ReportCommit(access, value))
        elif isinstance(step, FlatCommit):
            txn_name = TransactionName((step.txn,))
            behavior.append(RequestCommit(txn_name, "done"))
            behavior.append(Commit(txn_name))
            behavior.append(ReportCommit(txn_name, "done"))
        # FlatAbort: the transaction simply never commits; omitting the
        # nested ABORT keeps its accesses merely invisible, which matches
        # the classical committed projection.
    return tuple(behavior), system_type
