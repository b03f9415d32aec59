"""The undo logging object automaton ``U_X`` (Section 6.2).

A generic object for objects of *arbitrary* data type, generalising
Weihl's algorithm to nested transactions.  The state is a log of
operations (with aborted descendants excised) plus created /
commit-requested / committed bookkeeping:

* a ``REQUEST_COMMIT(T, v)`` is enabled when ``(T, v)`` commutes
  backward with every logged operation whose issuer is not yet known to
  be an ancestor-or-committed-up-to ``T`` (the "not visible" ones), and
  appending ``(T, v)`` to the log keeps the log a behavior of ``S_X``;
* ``INFORM_COMMIT`` merely records the commit (loosening future
  commutativity checks);
* ``INFORM_ABORT`` removes all of the aborted transaction's descendants'
  operations from the log — recovery by undo.

The state also keeps ``replayed``, the spec state the log's operations
lead to from the initial one.  The value an access would return is then
one ``spec.apply`` on it, where the definition (:meth:`enabled`)
replays the whole log; it is replayed afresh only when an
``INFORM_ABORT`` removes entries.

Works with any serial specification exposing ``initial``/``apply`` and
``conflicts``/``is_legal``/``result_of``: both
:class:`repro.spec.datatype.DataType` instances and the plain
:class:`repro.core.rw_semantics.RWSpec` (the latter yields a
read/write object with classical conflicts — the E7 ablation contrasts
it with the exact-commutativity :class:`repro.spec.builtin.RegisterType`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Tuple

from ..automata.base import evolve
from ..core.actions import (
    Action,
    Create,
    InformAbort,
    InformCommit,
    RequestCommit,
)
from ..core.names import ObjectName, SystemType, TransactionName
from ..core.operations import Operation
from ..generic.objects import BLOCKED, GenericObject, ObjectState

__all__ = ["UndoLogState", "UndoLoggingObject"]


@dataclass(frozen=True)
class UndoLogState(ObjectState):
    """The state of ``U_X``: bookkeeping sets plus the operation log,
    and the spec state the log replays to."""

    committed: FrozenSet[TransactionName] = frozenset()
    operations: Tuple[Operation, ...] = ()
    replayed: Any = None


class UndoLoggingObject(GenericObject):
    """``U_X``: the undo logging generic object automaton."""

    def __init__(self, obj: ObjectName, system_type: SystemType) -> None:
        super().__init__(obj, system_type)
        self.spec = system_type.spec(obj)
        for required in ("initial", "apply", "conflicts", "is_legal", "result_of"):
            if not hasattr(self.spec, required):
                raise TypeError(
                    f"spec for {obj} lacks {required!r}; undo logging needs it"
                )
        self.name = f"U_{obj}"

    # -- helpers -----------------------------------------------------------

    def _pairs(self, log: Tuple[Operation, ...]) -> Tuple[Tuple[Any, Any], ...]:
        return tuple(
            (self.system_type.access(entry.transaction).op, entry.value)
            for entry in log
        )

    def _commutes_with_uncommitted(
        self, state: UndoLogState, transaction: TransactionName, value: Any
    ) -> bool:
        """The commutativity precondition of ``REQUEST_COMMIT(T, v)``.

        ``(T, v)`` must commute backward with every logged ``(T', v')``
        such that some ancestor of ``T'`` outside ``ancestors(T)`` is not
        known committed.  Those ancestors are the ones below the depth
        of ``lca(T, T')``, so one comparison of the two paths finds them.
        """
        op = self.system_type.access(transaction).op
        path = transaction.path
        committed = state.committed
        for entry in state.operations:
            issuer = entry.transaction
            depth = 0
            for mine, theirs in zip(path, issuer.path):
                if mine != theirs:
                    break
                depth += 1
            below_lca = issuer.ancestor_chain()[: issuer.depth - depth]
            if committed.issuperset(below_lca):
                continue
            other_op = self.system_type.access(issuer).op
            if self.spec.conflicts(other_op, entry.value, op, value):
                return False
        return True

    def _forced_value(self, state: UndoLogState, transaction: TransactionName) -> Any:
        """The value making ``perform(log + (T, v))`` a behavior of ``S_X``,
        or :data:`BLOCKED` when the log itself is not one.

        Our specifications are deterministic, so there is exactly one
        such value for a legal log.  This replays the log: it is the
        definition, which :meth:`response` reads off ``replayed``.
        """
        op = self.system_type.access(transaction).op
        pairs = self._pairs(state.operations)
        if not self.spec.is_legal(pairs):
            return BLOCKED
        return self.spec.result_of(pairs, op)

    def _replay(self, log: Tuple[Operation, ...]) -> Any:
        """The spec state ``log``'s operations lead to from the initial one."""
        current = self.spec.initial
        for op, _ in self._pairs(log):
            current, _ = self.spec.apply(current, op)
        return current

    # -- transitions ----------------------------------------------------------

    def initial_state(self) -> UndoLogState:
        return UndoLogState(replayed=self.spec.initial)

    def enabled(self, state: UndoLogState, action: Action) -> bool:
        if self.is_input(action):
            return True
        if isinstance(action, RequestCommit):
            transaction = action.transaction
            if (
                transaction not in state.created
                or transaction in state.commit_requested
            ):
                return False
            if not self._commutes_with_uncommitted(state, transaction, action.value):
                return False
            return self._forced_value(state, transaction) == action.value
        return False

    def effect(self, state: UndoLogState, action: Action) -> UndoLogState:
        if isinstance(action, Create):
            return self.create_access(state, action.transaction)
        if isinstance(action, InformCommit):
            return evolve(state, committed=state.committed | {action.transaction})
        if isinstance(action, InformAbort):
            survivors = tuple(
                entry
                for entry in state.operations
                if not action.transaction.is_ancestor_of(entry.transaction)
            )
            if len(survivors) == len(state.operations):
                return state
            return evolve(
                state, operations=survivors, replayed=self._replay(survivors)
            )
        if isinstance(action, RequestCommit):
            transaction = action.transaction
            op = self.system_type.access(transaction).op
            replayed, _ = self.spec.apply(state.replayed, op)
            return self.answer_access(
                state,
                transaction,
                operations=state.operations + (Operation(transaction, action.value),),
                replayed=replayed,
            )
        raise ValueError(f"{self.name}: {action} not in signature")

    def response(self, state: UndoLogState) -> Callable[[TransactionName], Any]:
        """An access responds with the value ``apply`` gives it on the
        replayed state, once that value commutes backward with every
        uncommitted logged operation."""
        access = self.system_type.access
        apply = self.spec.apply
        replayed = state.replayed

        def respond(transaction: TransactionName) -> Any:
            _, value = apply(replayed, access(transaction).op)
            if self._commutes_with_uncommitted(state, transaction, value):
                return value
            return BLOCKED

        return respond
