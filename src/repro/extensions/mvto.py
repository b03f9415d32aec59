"""Multiversion timestamp ordering — the paper's future-work boundary.

The conclusion of the paper notes that the classical theory "has been
extended … to model concurrency control and recovery algorithms that
use multiple versions" and that parallel techniques should be
developable for the nested model; its related work stresses that the
*user-view* correctness definition already covers multiversion
algorithms even though the serialization-graph technique (built on
single-version conflict order) does not.

This module makes that boundary measurable.  :class:`MVTORWObject` is a
generic object implementing multiversion timestamp ordering for a
read/write object over *timestamped* top-level transactions (each
access inherits the timestamp of its top-level ancestor; we use the
static name order, the simulation analogue of assigning start
timestamps):

* a write installs a new version tagged with the writer's timestamp —
  unless some transaction with a *later* timestamp already read an
  *earlier* version, in which case the write is refused (the driver's
  deadlock resolution then aborts the writer, playing the role of the
  MVTO abort rule);
* a read returns the latest version with timestamp ≤ its own whose
  writer's chain is known-committed (avoiding dirty reads and cascading
  aborts); it waits otherwise;
* INFORM_ABORT removes the aborted subtree's versions and reads.

Behaviors of this object are serializable in *timestamp* order, which
need not agree with the event order the ARV condition and the conflict
edges are built from — so the Theorem 8 test rightly rejects some of
its (serially correct) behaviors.  Experiment E10 quantifies exactly
how often, with the brute-force oracle as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Optional, Tuple

from ..automata.base import evolve
from ..core.actions import Action, Create, InformAbort, InformCommit, RequestCommit
from ..core.names import ROOT, ObjectName, SystemType, TransactionName
from ..core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from ..generic.objects import BLOCKED, GenericObject, ObjectState
from ..locking.visibility import inform_chain

__all__ = ["Version", "MVTOState", "MVTORWObject"]


@dataclass(frozen=True, order=True)
class Version:
    """One version: (timestamp, sequence within the timestamp, data, writer)."""

    timestamp: TransactionName
    sequence: int
    data: Any = None
    writer: Optional[TransactionName] = None


@dataclass(frozen=True)
class MVTOState(ObjectState):
    """Versions, recorded reads, and the usual bookkeeping sets."""

    versions: Tuple[Version, ...] = ()
    # recorded reads: (reader timestamp, reader access, version read)
    reads: Tuple[Tuple[TransactionName, TransactionName, Version], ...] = ()
    committed: FrozenSet[TransactionName] = frozenset()


def _timestamp(transaction: TransactionName) -> TransactionName:
    """The access's timestamp: its top-level ancestor (static name order)."""
    if transaction.is_root:
        return ROOT
    return TransactionName(transaction.path[:1])


class MVTORWObject(GenericObject):
    """Multiversion timestamp ordering for a read/write object."""

    def __init__(self, obj: ObjectName, system_type: SystemType) -> None:
        super().__init__(obj, system_type)
        spec = system_type.spec(obj)
        if not isinstance(spec, RWSpec):
            raise TypeError(f"MVTO needs an RWSpec for {obj}, got {spec!r}")
        self.initial_value = spec.initial
        self.name = f"MVTO_{obj}"

    # -- helpers -----------------------------------------------------------

    def initial_state(self) -> MVTOState:
        return MVTOState(versions=(Version(ROOT, 0, self.initial_value, None),))

    def _candidate(
        self, state: MVTOState, reader: TransactionName
    ) -> Optional[Version]:
        """Latest version with timestamp ≤ the reader's timestamp."""
        limit = _timestamp(reader)
        eligible = [v for v in state.versions if v.timestamp <= limit]
        return max(eligible) if eligible else None

    def _writer_stable(
        self, state: MVTOState, version: Version, reader: TransactionName
    ) -> bool:
        """Is the version's writer chain known-committed up to the reader?"""
        if version.writer is None:
            return True
        chain = inform_chain(version.writer, reader)
        return all(link in state.committed for link in chain)

    def _read_enabled(
        self, state: MVTOState, transaction: TransactionName
    ) -> Optional[Version]:
        if transaction not in state.created or transaction in state.commit_requested:
            return None
        version = self._candidate(state, transaction)
        if version is None:
            return None
        if not self._writer_stable(state, version, transaction):
            return None
        return version

    def _write_enabled(self, state: MVTOState, transaction: TransactionName) -> bool:
        if transaction not in state.created or transaction in state.commit_requested:
            return False
        timestamp = _timestamp(transaction)
        for reader_ts, _reader, version in state.reads:
            # a later reader already read past this writer's slot
            if version.timestamp < timestamp < reader_ts:
                return False
        return True

    # -- transitions ----------------------------------------------------------

    def enabled(self, state: MVTOState, action: Action) -> bool:
        if self.is_input(action):
            return True
        if isinstance(action, RequestCommit):
            transaction = action.transaction
            op = self.system_type.access(transaction).op
            if isinstance(op, ReadOp):
                version = self._read_enabled(state, transaction)
                return version is not None and action.value == version.data
            if isinstance(op, WriteOp):
                return self._write_enabled(state, transaction) and action.value == OK
        return False

    def effect(self, state: MVTOState, action: Action) -> MVTOState:
        if isinstance(action, Create):
            return self.create_access(state, action.transaction)
        if isinstance(action, InformCommit):
            return evolve(state, committed=state.committed | {action.transaction})
        if isinstance(action, InformAbort):
            doomed = action.transaction
            versions = tuple(
                v
                for v in state.versions
                if v.writer is None or not doomed.is_ancestor_of(v.writer)
            )
            reads = tuple(
                entry
                for entry in state.reads
                if not doomed.is_ancestor_of(entry[1])
            )
            return evolve(state, versions=versions, reads=reads)
        if isinstance(action, RequestCommit):
            transaction = action.transaction
            op = self.system_type.access(transaction).op
            if isinstance(op, ReadOp):
                version = self._read_enabled(state, transaction)
                assert version is not None
                return self.answer_access(
                    state,
                    transaction,
                    reads=state.reads
                    + ((_timestamp(transaction), transaction, version),),
                )
            timestamp = _timestamp(transaction)
            sequence = 1 + max(
                (v.sequence for v in state.versions if v.timestamp == timestamp),
                default=0,
            )
            version = Version(timestamp, sequence, op.data, transaction)
            return self.answer_access(
                state, transaction, versions=state.versions + (version,)
            )
        raise ValueError(f"{self.name}: {action} not in signature")

    def response(self, state: MVTOState) -> Callable[[TransactionName], Any]:
        """A read responds with the data of the version it would read
        once that version's writer is stable; a write with ``OK`` unless
        a later reader already read past its slot."""
        access = self.system_type.access

        def respond(transaction: TransactionName) -> Any:
            op = access(transaction).op
            if isinstance(op, ReadOp):
                version = self._read_enabled(state, transaction)
                return BLOCKED if version is None else version.data
            if isinstance(op, WriteOp) and self._write_enabled(state, transaction):
                return OK
            return BLOCKED

        return respond
