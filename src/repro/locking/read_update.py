"""Read/update locking for arbitrary data types — the general form of Moss.

The paper's ``M1_X`` (Section 5.2) is "a simplification of the
read/update locking automaton ``M_X`` defined in [4]", which works for
*any* serial object: read-only operations take shared read locks,
every other ("update") operation takes an exclusive update lock, and
each update lockholder carries a private copy of the abstract state
reflecting its tentative operations.  Lock and state inheritance on
INFORM_COMMIT and discard on INFORM_ABORT are exactly as in ``M1_X``.

Compared with undo logging (:mod:`repro.undo.logging`), read/update
locking supports the same types but ignores commutativity — every
update serialises.  It is the conservative middle point of the E7
ablation: RW locking < read/update locking < undo logging in admitted
concurrency, all three certified by the same serialization-graph test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Tuple

from ..automata.base import evolve
from ..core.actions import Action, Create, InformAbort, InformCommit, RequestCommit
from ..core.names import ROOT, ObjectName, SystemType, TransactionName
from ..generic.objects import BLOCKED, GenericObject, ObjectState
from ..spec.datatype import DataType

__all__ = ["ReadUpdateState", "ReadUpdateLockingObject"]


@dataclass(frozen=True)
class ReadUpdateState(ObjectState):
    """State of ``M_X``: lockholder sets plus per-update-holder type states."""

    update_locks: Tuple[Tuple[TransactionName, Any], ...] = ()
    read_lockholders: FrozenSet[TransactionName] = frozenset()

    @property
    def update_lockholders(self) -> FrozenSet[TransactionName]:
        return frozenset(name for name, _ in self.update_locks)

    def state_of(self, holder: TransactionName) -> Any:
        for name, value in self.update_locks:
            if name == holder:
                return value
        raise KeyError(holder)

    def with_update_lock(self, holder: TransactionName, value: Any) -> "ReadUpdateState":
        locks = tuple(
            (name, existing) for name, existing in self.update_locks if name != holder
        )
        return evolve(self, update_locks=tuple(sorted(locks + ((holder, value),))))

    def without_update_locks(
        self, holders: FrozenSet[TransactionName]
    ) -> "ReadUpdateState":
        locks = tuple(
            (name, value) for name, value in self.update_locks if name not in holders
        )
        return evolve(self, update_locks=locks)


def _least(holders: FrozenSet[TransactionName]) -> TransactionName:
    return max(holders, key=lambda name: name.depth)


class ReadUpdateLockingObject(GenericObject):
    """``M_X``: read/update locking for an object of arbitrary data type."""

    def __init__(self, obj: ObjectName, system_type: SystemType) -> None:
        super().__init__(obj, system_type)
        spec = system_type.spec(obj)
        if not isinstance(spec, DataType):
            raise TypeError(
                f"read/update locking needs a DataType spec for {obj}, got {spec!r}"
            )
        self.datatype: DataType = spec
        self.name = f"M_{obj}"

    # -- helpers -----------------------------------------------------------

    def _current_state(self, state: ReadUpdateState) -> Any:
        return state.state_of(_least(state.update_lockholders))

    def _read_enabled(self, state: ReadUpdateState, transaction: TransactionName) -> bool:
        if transaction not in state.created or transaction in state.commit_requested:
            return False
        return all(
            holder.is_ancestor_of(transaction)
            for holder in state.update_lockholders
        )

    def _update_enabled(
        self, state: ReadUpdateState, transaction: TransactionName
    ) -> bool:
        if transaction not in state.created or transaction in state.commit_requested:
            return False
        holders = state.update_lockholders | state.read_lockholders
        return all(holder.is_ancestor_of(transaction) for holder in holders)

    def _expected_value(self, state: ReadUpdateState, transaction: TransactionName) -> Any:
        op = self.system_type.access(transaction).op
        _, value = self.datatype.apply(self._current_state(state), op)
        return value

    # -- transitions ----------------------------------------------------------

    def initial_state(self) -> ReadUpdateState:
        return ReadUpdateState(update_locks=((ROOT, self.datatype.initial),))

    def enabled(self, state: ReadUpdateState, action: Action) -> bool:
        if self.is_input(action):
            return True
        if isinstance(action, RequestCommit):
            transaction = action.transaction
            op = self.system_type.access(transaction).op
            if self.datatype.is_read_only(op):
                allowed = self._read_enabled(state, transaction)
            else:
                allowed = self._update_enabled(state, transaction)
            return allowed and action.value == self._expected_value(state, transaction)
        return False

    def effect(self, state: ReadUpdateState, action: Action) -> ReadUpdateState:
        if isinstance(action, Create):
            return self.create_access(state, action.transaction)
        if isinstance(action, InformCommit):
            transaction = action.transaction
            new = state
            if transaction in new.update_lockholders:
                inherited = new.state_of(transaction)
                new = new.without_update_locks(frozenset({transaction}))
                new = new.with_update_lock(transaction.parent, inherited)
            if transaction in new.read_lockholders:
                holders = (new.read_lockholders - {transaction}) | {transaction.parent}
                new = evolve(new, read_lockholders=frozenset(holders))
            return new
        if isinstance(action, InformAbort):
            transaction = action.transaction
            doomed_updates = frozenset(
                holder
                for holder in state.update_lockholders
                if transaction.is_ancestor_of(holder)
            )
            doomed_reads = frozenset(
                holder
                for holder in state.read_lockholders
                if transaction.is_ancestor_of(holder)
            )
            new = state.without_update_locks(doomed_updates)
            return evolve(new, read_lockholders=new.read_lockholders - doomed_reads)
        if isinstance(action, RequestCommit):
            transaction = action.transaction
            op = self.system_type.access(transaction).op
            if self.datatype.is_read_only(op):
                return self.answer_access(
                    state,
                    transaction,
                    read_lockholders=state.read_lockholders | {transaction},
                )
            next_state, _ = self.datatype.apply(self._current_state(state), op)
            return self.answer_access(state, transaction).with_update_lock(
                transaction, next_state
            )
        raise ValueError(f"{self.name}: {action} not in signature")

    def response(self, state: ReadUpdateState) -> Callable[[TransactionName], Any]:
        """An access responds with the value its operation returns on the
        least update lockholder's state, once every update lockholder
        (for a read-only operation) or every lockholder (for an update)
        is its ancestor; the holder sets are built once per state."""
        updaters = state.update_lockholders
        holders = updaters | state.read_lockholders
        current = self._current_state(state)
        access = self.system_type.access
        datatype = self.datatype

        def respond(transaction: TransactionName) -> Any:
            op = access(transaction).op
            needed = updaters if datatype.is_read_only(op) else holders
            if not needed.issubset(transaction.ancestor_chain()):
                return BLOCKED
            _, value = datatype.apply(current, op)
            return value

        return respond
