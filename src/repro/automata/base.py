"""The I/O automaton model (Section 2.1), executable form.

An :class:`IOAutomaton` has input, output and internal actions; inputs
must be enabled in every state, while locally-controlled actions
(outputs and internals) carry preconditions.  States are treated as
opaque values that :meth:`IOAutomaton.effect` maps functionally — an
effect returns a *new* state and never mutates its argument, so the
exploration utilities (enumeration of enabled actions, schedule
replay) can branch freely.

Because the action universe of a transaction system is infinite (one
action per transaction name and value), signatures are predicates, and
automata additionally enumerate the *candidate* locally-controlled
actions enabled in a given state via :meth:`IOAutomaton.enabled_outputs`.
An automaton whose signature names finitely many transactions and
objects states it as a finite table instead (:meth:`IOAutomaton.signature`);
its predicates are then read off the table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Any,
    Collection,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from ..core.actions import Action, InformAbort, InformCommit

__all__ = [
    "IOAutomaton",
    "Execution",
    "SignatureRow",
    "replay_schedule",
    "behavior_of",
    "evolve",
    "signature_key",
]

State = TypeVar("State")

#: One row of a signature table (see :meth:`IOAutomaton.signature`): an
#: action class, the :func:`signature_key` values its actions carry, or
#: ``None`` for every action of the class, and whether they are outputs.
SignatureRow = Tuple[Type[Any], Optional[Collection[Hashable]], bool]

_KEYED_BY_OBJECT = (InformCommit, InformAbort)


def signature_key(action: Action) -> Hashable:
    """The key a signature table files ``action`` under: an inform's
    object, any other action's transaction."""
    if type(action) in _KEYED_BY_OBJECT:
        return action.obj  # type: ignore[union-attr]
    return action.transaction


def evolve(state: State, **changes: Any) -> State:
    """``state`` with the fields named in ``changes`` replaced.

    The result equals ``dataclasses.replace(state, **changes)`` for the
    frozen dataclass states the automata here keep, which have no
    ``__post_init__`` and only immutable fields.  It is made by one
    ``__dict__`` copy that shares the unchanged fields, where
    ``replace`` calls ``__init__`` with every field; effects run once
    per simulated step, and the copy is several times cheaper.  Like
    ``replace``, it raises ``TypeError`` for a name that is not a
    field, which the copy would otherwise store beside the fields,
    outside equality and hashing.
    """
    fields = state.__dataclass_fields__  # type: ignore[attr-defined]
    if not changes.keys() <= fields.keys():
        unknown = ", ".join(sorted(changes.keys() - fields.keys()))
        raise TypeError(f"{type(state).__name__} has no field {unknown}")
    new = object.__new__(type(state))
    new.__dict__.update(state.__dict__, **changes)
    return new


class IOAutomaton(ABC):
    """An input/output automaton with a functional transition relation."""

    name: str = "automaton"

    @abstractmethod
    def initial_state(self) -> Any:
        """The (single) start state.  Multiple start states are not needed here."""

    def signature(self) -> Optional[Iterable[SignatureRow]]:
        """The external signature as a finite table, or ``None``.

        A row ``(cls, keys, is_output)`` puts into the signature the
        actions of class ``cls`` whose :func:`signature_key` is in
        ``keys`` (every action of ``cls`` when ``keys`` is ``None``): as
        outputs when ``is_output`` holds, as inputs otherwise.  A table
        is a set of ``(class, key, is_output)`` entries, one row per
        class and direction, so a composition merges tables a row at a
        time.  An automaton with a table gets :meth:`is_input` and
        :meth:`is_output` from it, and a :class:`Composition` routes
        actions to it with dict lookups.  One without (the default)
        overrides both predicates, and a composition consults it on
        every action.  The table must not change once the automaton is
        composed.
        """
        return None

    def is_input(self, action: Action) -> bool:
        """Signature predicate for input actions."""
        return self._signature_entry(action) is False

    def is_output(self, action: Action) -> bool:
        """Signature predicate for output actions."""
        return self._signature_entry(action) is True

    def _signature_entry(self, action: Action) -> Optional[bool]:
        """Whether :meth:`signature`'s table holds ``action`` as an output
        (True) or an input (False); None when it does not hold it."""
        table: Optional[Dict[Tuple[Type[Any], Optional[Hashable]], bool]]
        table = self.__dict__.get("_signature_table")
        if table is None:
            rows = self.signature()
            if rows is None:
                raise NotImplementedError(
                    f"{type(self).__name__} has no signature table and does "
                    "not define is_input/is_output"
                )
            table = {}
            for cls, keys, is_output in rows:
                for key in (None,) if keys is None else keys:
                    table[cls, key] = is_output
            self.__dict__["_signature_table"] = table
        cls = type(action)
        found = table.get((cls, None))
        if found is None:
            found = table.get((cls, signature_key(action)))
        return found

    def is_action(self, action: Action) -> bool:
        """True iff ``action`` belongs to this automaton's external signature."""
        return self.is_input(action) or self.is_output(action)

    @abstractmethod
    def enabled(self, state: Any, action: Action) -> bool:
        """Is ``action`` enabled in ``state``?

        Implementations must return True for every input action in every
        state (input-enabledness); the test suite checks this.
        """

    @abstractmethod
    def effect(self, state: Any, action: Action) -> Any:
        """The state after performing ``action`` in ``state`` (pure)."""

    def enabled_outputs(self, state: Any) -> Iterator[Action]:
        """Enumerate locally-controlled actions enabled in ``state``.

        The default is empty (purely reactive automata override this).
        Used by the simulation driver to discover what can happen next.
        """
        return iter(())

    def step(self, state: Any, action: Action) -> Any:
        """Perform one step, checking enabledness for locally-controlled actions."""
        if self.is_output(action) and not self.enabled(state, action):
            raise ValueError(f"{self.name}: output {action} not enabled")
        return self.effect(state, action)


@dataclass
class Execution:
    """A finite execution: alternating states and actions, ending in a state."""

    automaton: IOAutomaton
    states: List[Any]
    actions: List[Action]

    @property
    def final_state(self) -> Any:
        return self.states[-1]

    def schedule(self) -> Tuple[Action, ...]:
        return tuple(self.actions)


def replay_schedule(
    automaton: IOAutomaton, schedule: Sequence[Action], strict: bool = True
) -> Execution:
    """Run ``schedule`` from the initial state, returning the execution.

    With ``strict`` (the default), locally-controlled actions must be
    enabled when performed — replaying a schedule that is not a schedule
    of the automaton raises ``ValueError``.  Actions outside the
    automaton's signature are rejected; use :func:`behavior_of` style
    projection before replaying a composite schedule.
    """
    state = automaton.initial_state()
    states = [state]
    actions: List[Action] = []
    for action in schedule:
        if not automaton.is_action(action):
            raise ValueError(f"{automaton.name}: {action} not in signature")
        if strict:
            state = automaton.step(state, action)
        else:
            state = automaton.effect(state, action)
        states.append(state)
        actions.append(action)
    return Execution(automaton, states, actions)


def behavior_of(
    automaton: IOAutomaton, schedule: Sequence[Action]
) -> Tuple[Action, ...]:
    """Project a composite schedule onto this automaton's external actions."""
    return tuple(action for action in schedule if automaton.is_action(action))
