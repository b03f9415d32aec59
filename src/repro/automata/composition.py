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
    transaction, that transaction's parent and its object (remembering
    the candidates per transaction and object), adds the components
    that declared no keys, and keeps those whose ``is_action`` holds,
    in component order.  The same pass finds the one participant that
    has the action as an output.  Keys are fixed at composition: a
    component's signature must not change afterwards.  Component
    methods are looked up on each component at call time, so wrappers
    installed on a component instance see every call.
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
        # the components keyed by an action's transaction, that
        # transaction's parent or its object, by (transaction, object)
        self._candidates: Dict[
            Tuple[Any, Optional[Hashable]], Tuple[IOAutomaton, ...]
        ] = {}
        # one-slot memo: the driver asks for the participants of the
        # action it has just applied through ``effect``
        self._routed: Tuple[
            Optional[Action], Tuple[IOAutomaton, ...], Optional[IOAutomaton]
        ] = (None, (), None)

    def _route(
        self, action: Action
    ) -> Tuple[Tuple[IOAutomaton, ...], Optional[IOAutomaton]]:
        """``action``'s participants, in component order, and the one
        among them that has it as an output, if any, found in one pass
        over the routed candidates.  Raises when two components output
        ``action`` (strong compatibility)."""
        routed, participants, owner = self._routed
        if action is routed:
            return participants, owner
        transaction = action.transaction
        obj = getattr(action, "obj", None)
        candidates = self._candidates.get((transaction, obj))
        if candidates is None:
            routes = self._routes
            found = self._everywhere + routes.get(transaction, ())
            if transaction.path:
                found += routes.get(transaction.parent, ())
            if obj is not None:
                found += routes.get(obj, ())
            candidates = tuple(map(self.components.__getitem__, sorted(set(found))))
            self._candidates[transaction, obj] = candidates
        members: List[IOAutomaton] = []
        owner = None
        for component in candidates:
            if not component.is_action(action):
                continue
            members.append(component)
            if component.is_output(action):
                if owner is not None:
                    owners = [c.name for c in members if c.is_output(action)]
                    raise ValueError(
                        f"{action} is an output of multiple components: {owners}"
                    )
                owner = component
        participants = tuple(members)
        self._routed = (action, participants, owner)
        return participants, owner

    def participants(self, action: Action) -> Tuple[IOAutomaton, ...]:
        """The components whose signature holds ``action``, in component order."""
        return self._route(action)[0]

    # -- signature -------------------------------------------------------

    def is_input(self, action: Action) -> bool:
        participants, owner = self._route(action)
        return bool(participants) and owner is None

    def is_output(self, action: Action) -> bool:
        return self._route(action)[1] is not None

    # -- transitions ------------------------------------------------------

    def initial_state(self) -> Dict[str, Any]:
        return {c.name: c.initial_state() for c in self.components}

    def enabled(self, state: Dict[str, Any], action: Action) -> bool:
        participants, owner = self._route(action)
        if owner is not None:
            return owner.enabled(state[owner.name], action)
        return bool(participants)

    def effect(self, state: Dict[str, Any], action: Action) -> Dict[str, Any]:
        new_state = dict(state)
        for component in self._route(action)[0]:
            name = component.name
            new_state[name] = component.effect(state[name], action)
        return new_state

    def enabled_outputs(self, state: Dict[str, Any]) -> Iterator[Action]:
        for component in self.components:
            for action in component.enabled_outputs(state[component.name]):
                yield action
