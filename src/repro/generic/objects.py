"""The generic object automaton signature (Section 5.1).

A generic object for ``X`` is responsible for concurrency control and
recovery at ``X``.  Besides the CREATE inputs and REQUEST_COMMIT outputs
of a serial object, it receives ``INFORM_COMMIT_AT(X)OF(T)`` and
``INFORM_ABORT_AT(X)OF(T)`` inputs telling it the fate of (arbitrary)
transactions.  :class:`GenericObject` fixes the signature; concrete
algorithms — Moss locking (:mod:`repro.locking.moss`) and undo logging
(:mod:`repro.undo.logging`) — implement the transitions.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Hashable, Iterator, Tuple

from ..automata.base import IOAutomaton
from ..core.actions import Action, Create, InformAbort, InformCommit, RequestCommit
from ..core.names import ObjectName, SystemType, TransactionName

__all__ = ["GenericObject"]


class GenericObject(IOAutomaton):
    """Base class fixing the generic-object signature for one object name."""

    def __init__(self, obj: ObjectName, system_type: SystemType) -> None:
        self.obj = obj
        self.system_type = system_type

    def is_my_access(self, transaction: TransactionName) -> bool:
        return (
            self.system_type.is_access(transaction)
            and self.system_type.object_of(transaction) == self.obj
        )

    def is_input(self, action: Action) -> bool:
        if isinstance(action, Create):
            return self.is_my_access(action.transaction)
        if isinstance(action, (InformCommit, InformAbort)):
            return action.obj == self.obj
        return False

    def is_output(self, action: Action) -> bool:
        return isinstance(action, RequestCommit) and self.is_my_access(
            action.transaction
        )

    def routing_keys(self) -> Tuple[Hashable, ...]:
        """The object (its informs) and its accesses (their CREATE and
        REQUEST_COMMIT)."""
        return (self.obj,) + self.system_type.accesses_by_object().get(self.obj, ())

    @abstractmethod
    def initial_state(self) -> Any: ...

    @abstractmethod
    def enabled(self, state: Any, action: Action) -> bool: ...

    @abstractmethod
    def effect(self, state: Any, action: Action) -> Any: ...

    @abstractmethod
    def enabled_outputs(self, state: Any) -> Iterator[Action]: ...

    def blocked_accesses(self, state: Any) -> Iterator[TransactionName]:
        """Accesses that are created, unanswered, and not currently enabled.

        Used by the simulation statistics (experiment E7) to measure how
        much concurrency an algorithm denies; algorithms override.
        """
        return iter(())
