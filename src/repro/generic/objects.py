"""The generic object automaton signature (Section 5.1).

A generic object for ``X`` is responsible for concurrency control and
recovery at ``X``.  Besides the CREATE inputs and REQUEST_COMMIT outputs
of a serial object, it receives ``INFORM_COMMIT_AT(X)OF(T)`` and
``INFORM_ABORT_AT(X)OF(T)`` inputs telling it the fate of (arbitrary)
transactions.  :class:`GenericObject` fixes the signature; concrete
algorithms — Moss locking (:mod:`repro.locking.moss`) and undo logging
(:mod:`repro.undo.logging`) — implement the transitions.

Enumeration: each object's state keeps its *waiting* accesses, the
ones created and not yet answered, in name order (:class:`ObjectState`;
``effect`` keeps the list through :meth:`GenericObject.create_access`
and :meth:`GenericObject.answer_access`).  An algorithm gives one
*response rule* per state (:meth:`GenericObject.response`): the value
a waiting access would return now, or :data:`BLOCKED`.  Both
:meth:`GenericObject.enabled_outputs` and
:meth:`GenericObject.blocked_accesses` walk the waiting list through
that rule, so they cost the waiting accesses rather than every access
the object has seen.  ``enabled`` stays each algorithm's definition,
and the test suite checks the enumeration against it.
"""

from __future__ import annotations

from abc import abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, FrozenSet, Iterator, Tuple, TypeVar

from ..automata.base import IOAutomaton, SignatureRow, evolve
from ..core.actions import Action, Create, InformAbort, InformCommit, RequestCommit
from ..core.names import ObjectName, SystemType, TransactionName

__all__ = ["BLOCKED", "GenericObject", "ObjectState"]


class _Blocked:
    def __repr__(self) -> str:
        return "BLOCKED"


#: What a response rule returns for an access that cannot respond now.
#: ``None`` will not do: a read of a register that was never written
#: returns ``None``.
BLOCKED: Any = _Blocked()

_path = attrgetter("path")


@dataclass(frozen=True)
class ObjectState:
    """The accesses a generic object has seen: ``created``,
    ``commit_requested`` (answered) and ``waiting``, the created
    accesses not yet answered, in name order.  Algorithms extend it
    with their own fields."""

    created: FrozenSet[TransactionName] = frozenset()
    commit_requested: FrozenSet[TransactionName] = frozenset()
    waiting: Tuple[TransactionName, ...] = ()


State = TypeVar("State", bound=ObjectState)


class GenericObject(IOAutomaton):
    """Base class fixing the generic-object signature for one object name.

    Every state an algorithm keeps extends :class:`ObjectState`: the
    enumeration here and the simulation driver's deadlock victim read
    its ``waiting`` list."""

    def __init__(self, obj: ObjectName, system_type: SystemType) -> None:
        self.obj = obj
        self.system_type = system_type

    def signature(self) -> Tuple[SignatureRow, ...]:
        """The informs at this object as inputs; its accesses' CREATEs
        as inputs and their REQUEST_COMMITs as outputs."""
        accesses = self.system_type.accesses_by_object().get(self.obj, ())
        return (
            (InformCommit, (self.obj,), False),
            (InformAbort, (self.obj,), False),
            (Create, accesses, False),
            (RequestCommit, accesses, True),
        )

    @abstractmethod
    def initial_state(self) -> Any: ...

    @abstractmethod
    def enabled(self, state: Any, action: Action) -> bool: ...

    @abstractmethod
    def effect(self, state: Any, action: Action) -> Any: ...

    @abstractmethod
    def response(self, state: Any) -> Callable[[TransactionName], Any]:
        """The response rule in ``state``: it maps a waiting access to
        the value its REQUEST_COMMIT would carry now, or to
        :data:`BLOCKED`.  Whatever the rule needs from the whole state
        is computed once here, not once per access."""

    # -- the waiting list ---------------------------------------------------

    def create_access(self, state: State, access: TransactionName) -> State:
        """``state`` after ``CREATE(access)``."""
        if access in state.created:
            return state
        waiting = state.waiting
        if access not in state.commit_requested:
            at = bisect_left(waiting, access.path, key=_path)
            waiting = waiting[:at] + (access,) + waiting[at:]
        return evolve(state, created=state.created | {access}, waiting=waiting)

    def answer_access(
        self, state: State, access: TransactionName, **changes: Any
    ) -> State:
        """``state`` after ``REQUEST_COMMIT`` of ``access``, with the
        algorithm's own ``changes``."""
        waiting = state.waiting
        at = bisect_left(waiting, access.path, key=_path)
        if at < len(waiting) and waiting[at] == access:
            waiting = waiting[:at] + waiting[at + 1 :]
        return evolve(
            state,
            commit_requested=state.commit_requested | {access},
            waiting=waiting,
            **changes,
        )

    # -- enumeration --------------------------------------------------------

    def enabled_outputs(self, state: Any) -> Iterator[Action]:
        """The REQUEST_COMMIT of each waiting access that can respond,
        in name order."""
        if not state.waiting:
            return
        respond = self.response(state)
        for access in state.waiting:
            value = respond(access)
            if value is not BLOCKED:
                yield RequestCommit(access, value)

    def blocked_accesses(self, state: Any) -> Iterator[TransactionName]:
        """The waiting accesses that cannot respond now, in name order.

        Used by the simulation statistics (experiment E7) to measure how
        much concurrency an algorithm denies.
        """
        respond = self.response(state)
        for access in state.waiting:
            if respond(access) is BLOCKED:
                yield access
