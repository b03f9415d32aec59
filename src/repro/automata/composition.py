"""Composition of I/O automata (Section 2.1).

A composition runs a strongly compatible collection of automata in
lockstep: an action of the composite is an action of some subset of the
components; every component having the action performs it, the rest stay
put.  An output of the composite is an output of any component; inputs of
the composite are actions that are inputs of some component and outputs
of none.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from ..core.actions import Action
from .base import IOAutomaton

__all__ = ["Composition"]


class Composition(IOAutomaton):
    """The composition of a list of I/O automata.

    Component names must be unique; states of the composite are dicts
    keyed by component name (copied on write, so effects stay pure).

    An action's *participants* are the components whose signature holds
    it.  A transaction-system action names one transaction and at most
    one object, so it has only a few, and :meth:`participants` finds them
    through an index built here from each component's
    :meth:`IOAutomaton.routing_keys`: it looks the action up by its
    transaction, that transaction's parent and its object, adds the
    components that declared no keys, and keeps those whose
    ``is_action`` holds, in component order.  Keys are fixed at
    composition: a component's signature must not change afterwards.
    Component methods are looked up on each component at call time, so
    wrappers installed on a component instance see every call.
    """

    def __init__(self, components: Sequence[IOAutomaton], name: str = "system") -> None:
        self.name = name
        self.components: Tuple[IOAutomaton, ...] = tuple(components)
        names = [component.name for component in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"component names must be unique: {names}")
        everywhere: List[int] = []
        routes: Dict[Hashable, Tuple[int, ...]] = {}
        for position, component in enumerate(self.components):
            keys = component.routing_keys()
            if keys is None:
                everywhere.append(position)
                continue
            for key in keys:
                routes[key] = routes.get(key, ()) + (position,)
        self._everywhere: Tuple[int, ...] = tuple(everywhere)
        self._routes = routes
        # one-slot memo: the driver asks for the participants of the
        # action it has just applied through ``effect``
        self._routed: Tuple[Optional[Action], Tuple[IOAutomaton, ...]] = (None, ())

    def participants(self, action: Action) -> Tuple[IOAutomaton, ...]:
        """The components whose signature holds ``action``, in component order."""
        routed, participants = self._routed
        if action is routed:
            return participants
        routes = self._routes
        transaction = action.transaction
        found = self._everywhere + routes.get(transaction, ())
        if transaction.path:
            found += routes.get(transaction.parent, ())
        obj = getattr(action, "obj", None)
        if obj is not None:
            found += routes.get(obj, ())
        components = self.components
        participants = tuple(
            component
            for component in map(components.__getitem__, sorted(set(found)))
            if component.is_action(action)
        )
        self._routed = (action, participants)
        return participants

    def _owner(self, action: Action) -> Optional[IOAutomaton]:
        """The one participant with ``action`` as an output, if any."""
        owners = [c for c in self.participants(action) if c.is_output(action)]
        if len(owners) > 1:
            raise ValueError(
                f"{action} is an output of multiple components: "
                f"{[c.name for c in owners]}"
            )
        return owners[0] if owners else None

    # -- signature -------------------------------------------------------

    def is_input(self, action: Action) -> bool:
        participants = self.participants(action)
        return bool(participants) and not any(
            c.is_output(action) for c in participants
        )

    def is_output(self, action: Action) -> bool:
        return any(c.is_output(action) for c in self.participants(action))

    # -- transitions ------------------------------------------------------

    def initial_state(self) -> Dict[str, Any]:
        return {c.name: c.initial_state() for c in self.components}

    def enabled(self, state: Dict[str, Any], action: Action) -> bool:
        owner = self._owner(action)
        if owner is not None:
            return owner.enabled(state[owner.name], action)
        return bool(self.participants(action))

    def effect(self, state: Dict[str, Any], action: Action) -> Dict[str, Any]:
        self._owner(action)  # strong compatibility: at most one outputs it
        new_state = dict(state)
        for component in self.participants(action):
            new_state[component.name] = component.effect(
                state[component.name], action
            )
        return new_state

    def enabled_outputs(self, state: Dict[str, Any]) -> Iterator[Action]:
        for component in self.components:
            for action in component.enabled_outputs(state[component.name]):
                yield action
