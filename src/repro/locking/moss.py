"""Moss' read/write locking object automaton ``M1_X`` (Section 5.2).

The default concurrency control and recovery algorithm of Argus and
Camelot, transcribed from the paper's transition relation.  The
automaton keeps read and write lock holder sets plus a stack of values
``value: write_lockholders -> D``:

* ``CREATE(T)`` registers the access;
* a read access responds when every *write* lockholder is an ancestor,
  returning the value of the least (deepest) write lockholder, and takes
  a read lock;
* a write access responds when every lockholder of either kind is an
  ancestor, returning ``OK``, takes a write lock, and stores its datum;
* ``INFORM_COMMIT`` passes a holder's locks (and stored value) to its
  parent — lock inheritance;
* ``INFORM_ABORT`` discards all locks held by descendants of the aborted
  transaction, exposing the pre-abort value underneath — undo for free.

The lemma-numbered invariants (Lemmas 9, 10, 12, 13) are implemented as
checkable predicates on states in :func:`write_lockholders_form_chain`
and friends, so the property-based tests exercise the paper's proof
obligations directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, FrozenSet, Tuple

from ..automata.base import evolve
from ..core.actions import (
    Action,
    Create,
    InformAbort,
    InformCommit,
    RequestCommit,
)
from ..core.names import ROOT, ObjectName, SystemType, TransactionName
from ..core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from ..generic.objects import BLOCKED, GenericObject, ObjectState

__all__ = [
    "MossState",
    "MossRWLockingObject",
    "write_lockholders_form_chain",
    "least_write_lockholder",
]


@dataclass(frozen=True)
class MossState(ObjectState):
    """The state of ``M1_X``.

    ``write_locks`` maps each write lockholder to its stored value; it is
    kept as a sorted tuple of pairs so states stay hashable.
    """

    write_locks: Tuple[Tuple[TransactionName, Any], ...] = ()
    read_lockholders: FrozenSet[TransactionName] = frozenset()

    @property
    def write_lockholders(self) -> FrozenSet[TransactionName]:
        return frozenset(name for name, _ in self.write_locks)

    def value(self, holder: TransactionName) -> Any:
        for name, value in self.write_locks:
            if name == holder:
                return value
        raise KeyError(holder)

    def with_write_lock(self, holder: TransactionName, value: Any) -> "MossState":
        locks = tuple(
            (name, existing) for name, existing in self.write_locks if name != holder
        )
        return evolve(self, write_locks=tuple(sorted(locks + ((holder, value),))))

    def without_write_locks(self, holders: FrozenSet[TransactionName]) -> "MossState":
        locks = tuple(
            (name, value) for name, value in self.write_locks if name not in holders
        )
        return evolve(self, write_locks=locks)


_depth = attrgetter("depth")


def least_write_lockholder(state: MossState) -> TransactionName:
    """The unique deepest element of the write lockholder chain."""
    holders = state.write_lockholders
    if not holders:
        raise ValueError("no write lockholders")
    return max(holders, key=_depth)


def write_lockholders_form_chain(state: MossState) -> bool:
    """Lemma 9 invariant: write lockholders are pairwise ancestor-related."""
    holders = sorted(state.write_lockholders, key=lambda name: name.depth)
    for shallow, deep in zip(holders, holders[1:]):
        if not shallow.is_ancestor_of(deep):
            return False
    return True


class MossRWLockingObject(GenericObject):
    """``M1_X``: the read/write locking generic object automaton."""

    def __init__(self, obj: ObjectName, system_type: SystemType) -> None:
        super().__init__(obj, system_type)
        spec = system_type.spec(obj)
        if not isinstance(spec, RWSpec):
            raise TypeError(f"Moss locking requires an RWSpec, got {spec!r}")
        self.initial_value = spec.initial
        self.name = f"M1_{obj}"

    # -- transitions ----------------------------------------------------------

    def initial_state(self) -> MossState:
        return MossState(write_locks=((ROOT, self.initial_value),))

    def _read_enabled(self, state: MossState, transaction: TransactionName) -> bool:
        if transaction not in state.created or transaction in state.commit_requested:
            return False
        return all(
            holder.is_ancestor_of(transaction) for holder in state.write_lockholders
        )

    def _write_enabled(self, state: MossState, transaction: TransactionName) -> bool:
        if transaction not in state.created or transaction in state.commit_requested:
            return False
        holders = state.write_lockholders | state.read_lockholders
        return all(holder.is_ancestor_of(transaction) for holder in holders)

    def enabled(self, state: MossState, action: Action) -> bool:
        if self.is_input(action):
            return True
        if isinstance(action, RequestCommit):
            transaction = action.transaction
            op = self.system_type.access(transaction).op
            if isinstance(op, ReadOp):
                return (
                    self._read_enabled(state, transaction)
                    and action.value == state.value(least_write_lockholder(state))
                )
            if isinstance(op, WriteOp):
                return self._write_enabled(state, transaction) and action.value == OK
        return False

    def effect(self, state: MossState, action: Action) -> MossState:
        if isinstance(action, Create):
            return self.create_access(state, action.transaction)
        if isinstance(action, InformCommit):
            transaction = action.transaction
            new = state
            if transaction in new.write_lockholders:
                inherited = new.value(transaction)
                new = new.without_write_locks(frozenset({transaction}))
                new = new.with_write_lock(transaction.parent, inherited)
            if transaction in new.read_lockholders:
                holders = (new.read_lockholders - {transaction}) | {transaction.parent}
                new = evolve(new, read_lockholders=frozenset(holders))
            return new
        if isinstance(action, InformAbort):
            transaction = action.transaction
            doomed_writes = frozenset(
                holder
                for holder in state.write_lockholders
                if transaction.is_ancestor_of(holder)
            )
            doomed_reads = frozenset(
                holder
                for holder in state.read_lockholders
                if transaction.is_ancestor_of(holder)
            )
            new = state.without_write_locks(doomed_writes)
            return evolve(new, read_lockholders=new.read_lockholders - doomed_reads)
        if isinstance(action, RequestCommit):
            transaction = action.transaction
            op = self.system_type.access(transaction).op
            if isinstance(op, ReadOp):
                return self.answer_access(
                    state,
                    transaction,
                    read_lockholders=state.read_lockholders | {transaction},
                )
            return self.answer_access(state, transaction).with_write_lock(
                transaction, op.data
            )
        raise ValueError(f"{self.name}: {action} not in signature")

    def response(self, state: MossState) -> Callable[[TransactionName], Any]:
        """A read responds with the least write lockholder's value when
        every write lockholder is its ancestor, a write with ``OK`` when
        every lockholder is; the holder sets and the least write
        lockholder's value are found once per state."""
        writers = state.write_lockholders
        holders = writers | state.read_lockholders
        value = state.value(max(writers, key=_depth))
        access = self.system_type.access

        def respond(transaction: TransactionName) -> Any:
            ancestors = transaction.ancestor_chain()
            op = access(transaction).op
            if isinstance(op, ReadOp):
                return value if writers.issubset(ancestors) else BLOCKED
            if isinstance(op, WriteOp) and holders.issubset(ancestors):
                return OK
            return BLOCKED

        return respond
