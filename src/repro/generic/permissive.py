"""A generic object with *no* concurrency control.

The undo logging object ``U_X`` (Section 6.2) delays a
``REQUEST_COMMIT`` until the operation commutes backward with every
uncommitted logged operation — that precondition is exactly what makes
the generic system serially correct.  :class:`PermissiveObject` drops
it: every created access is answered immediately with the value the
current log determines, dirty reads included.

That is deliberately *unsafe*.  The robustness validation bridge
(:mod:`repro.analysis.robustness`) uses it to realize the anomalous
interleavings a NOT-ROBUST verdict predicts: run the implicated
program templates over permissive objects, hand the behavior to the
certifier, and check that the serialization graph really does close a
cycle.  It is also the weakest generic object here: the baseline
against which the others' admitted concurrency is measured.

Each value is computed by running the log's operations through
``spec.apply``, whatever values they returned, so the object never
blocks and runs always complete; only the *order* the accesses
committed in — and therefore the serialization graph — can go wrong.
The enumeration reads that value off the replayed state undo logging
keeps; :meth:`PermissiveObject._forced_value` replays the log and is
the definition.
"""

from __future__ import annotations

from typing import Any

from ..core.names import ObjectName, SystemType, TransactionName
from ..generic.objects import GenericObject
from ..undo.logging import UndoLoggingObject, UndoLogState

__all__ = ["PermissiveObject"]


class PermissiveObject(UndoLoggingObject):
    """An undo-logging object that never waits: no commutativity gate,
    values read straight off the (possibly dirty) log."""

    def __init__(self, obj: ObjectName, system_type: SystemType) -> None:
        GenericObject.__init__(self, obj, system_type)
        self.spec = system_type.spec(obj)
        for required in ("initial", "apply"):
            if not hasattr(self.spec, required):
                raise TypeError(
                    f"spec for {obj} lacks {required!r}; the permissive object "
                    "replays its log through it"
                )
        self.name = f"P_{obj}"

    def _commutes_with_uncommitted(
        self, state: UndoLogState, transaction: TransactionName, value: Any
    ) -> bool:
        """No concurrency control: everything commutes."""
        return True

    def _forced_value(self, state: UndoLogState, transaction: TransactionName) -> Any:
        """The value the raw log determines — replay, don't validate."""
        op = self.system_type.access(transaction).op
        _, value = self.spec.apply(self._replay(state.operations), op)
        return value
