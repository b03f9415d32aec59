"""Serializable interleaved streams for the ``stream`` workload.

:func:`repro.stream.commit_as_you_go` interleaves a window of top-level
transactions with no concurrency control, so on long streams an SG cycle
latches within the first few hundred events; after that the online
certifier stops checking for cycles and the stream no longer measures
serializable traffic.  :func:`serializable_stream` keeps that generator's
shape (window, accesses per transaction, rotating object pool, read
values resolved at yield time) and adds conservative lock admission: a
top-level transaction enters the window only when its read/write lock
set is compatible with the lock set of every transaction in flight.
Conflicting transactions therefore never overlap, every conflict edge
runs from a finished transaction to a later one, and the serialization
graph stays acyclic while still collecting conflict edges.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.actions import (
    Action,
    Commit,
    Create,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.names import Access, ObjectName, SystemType, TransactionName
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from repro.stream import StreamWorkload

__all__ = ["serializable_stream"]

READ, WRITE = "r", "w"


class _Top:
    """One planned top-level transaction: its accesses and lock set."""

    def __init__(
        self, workload: StreamWorkload, index: int, rng: random.Random
    ) -> None:
        self.name = TransactionName((f"s{index}",))
        base = index // max(1, workload.rotation)
        self.accesses: List[Tuple[TransactionName, ObjectName, object]] = []
        self.locks: Dict[ObjectName, str] = {}
        for position in range(workload.accesses):
            obj = ObjectName(f"o{base + rng.randrange(workload.pool)}")
            if rng.random() < workload.read_fraction:
                op: object = ReadOp()
                self.locks.setdefault(obj, READ)
            else:
                op = WriteOp(rng.randrange(1000))
                self.locks[obj] = WRITE
            self.accesses.append((self.name.child(f"a{position}"), obj, op))
        self.cursor = 0
        self.steps = 4 + 5 * len(self.accesses)

    def compatible(self, other: "_Top") -> bool:
        """Whether the two lock sets can be held at once (only reads share)."""
        return all(
            mode == READ and other.locks[obj] == READ
            for obj, mode in self.locks.items()
            if obj in other.locks
        )


def serializable_stream(
    workload: StreamWorkload,
) -> Tuple[SystemType, List[Action]]:
    """Generate ``(system_type, actions)`` for one serializable stream.

    Deterministic in ``workload.seed``.  Every access is registered on
    the returned system type, so the action list can be fed to any
    certifier or session as is.
    """
    system_type = SystemType(
        {
            ObjectName(f"o{index}"): RWSpec(initial=0)
            for index in range(workload.object_count())
        }
    )
    rng = random.Random(workload.seed)
    values: Dict[ObjectName, int] = {}
    answers: Dict[TransactionName, object] = {}
    actions: List[Action] = []
    active: List[_Top] = []
    planned = 0
    head = None
    while planned < workload.top_level or head is not None or active:
        while len(active) < workload.window:
            if head is None and planned < workload.top_level:
                head = _Top(workload, planned, rng)
                planned += 1
                for access, obj, op in head.accesses:
                    system_type.register_access(access, Access(obj, op))
            if head is None or not all(head.compatible(top) for top in active):
                break
            active.append(head)
            head = None
        slot = rng.randrange(len(active))
        top = active[slot]
        actions.append(_step(top, values, answers))
        top.cursor += 1
        if top.cursor == top.steps:
            active.pop(slot)
    return system_type, actions


def _step(
    top: _Top, values: Dict[ObjectName, int], answers: Dict[TransactionName, object]
) -> Action:
    """The ``top.cursor``-th action of ``top``'s ceremony."""
    cursor = top.cursor
    if cursor == 0:
        return RequestCreate(top.name)
    if cursor == 1:
        return Create(top.name)
    if cursor == top.steps - 2:
        return RequestCommit(top.name, "done")
    if cursor == top.steps - 1:
        return Commit(top.name)
    access, obj, op = top.accesses[(cursor - 2) // 5]
    phase = (cursor - 2) % 5
    if phase == 0:
        return RequestCreate(access)
    if phase == 1:
        return Create(access)
    if phase == 2:
        # the value is fixed when the REQUEST_COMMIT is emitted: a read
        # returns the latest write emitted before it
        if isinstance(op, WriteOp):
            values[obj] = op.data
            answers[access] = OK
        else:
            answers[access] = values.get(obj, 0)
        return RequestCommit(access, answers[access])
    if phase == 3:
        return Commit(access)
    return ReportCommit(access, answers.pop(access))
