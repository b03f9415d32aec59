"""Composition of I/O automata (Section 2.1).

A composition runs a strongly compatible collection of automata in
lockstep: an action of the composite is an action of some subset of the
components; every component having the action performs it, the rest stay
put.  An output of the composite is an output of any component; inputs of
the composite are actions that are inputs of some component and outputs
of none.
"""

from __future__ import annotations

from typing import (
    Any,
    Collection,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..core.actions import Action
from .base import IOAutomaton, signature_key

__all__ = ["Composition"]

#: An action's participants, in component order, and the one among them
#: that has it as an output, if any.
Route = Tuple[Tuple[IOAutomaton, ...], Optional[IOAutomaton]]

_NOWHERE: Route = ((), None)


class Composition(IOAutomaton):
    """The composition of a list of I/O automata.

    Component names must be unique; states of the composite are dicts
    keyed by component name (copied on write, so effects stay pure).

    An action's *participants* are the components whose signature holds
    it.  The composition merges the components' signature tables
    (:meth:`IOAutomaton.signature`) once, here, a row at a time, into
    one route per action class and key: the participants in component
    order and the owner, the one that has the action as an output.  A
    row for every action of a class joins each keyed route of that
    class, and is the route of the class's other actions.  Two owners of
    one route raise here: strong compatibility, checked up front.
    :meth:`participants` then finds an action's route with at most three
    dict lookups and calls no predicate.  A component without a table is
    consulted through ``is_action`` on every action and merged into the
    route in component order; an action that it and another component
    both output raises when it is routed.  Component methods are looked
    up on each component at call time, so wrappers installed on a
    component instance see every call.
    """

    def __init__(self, components: Sequence[IOAutomaton], name: str = "system") -> None:
        self.name = name
        self.components: Tuple[IOAutomaton, ...] = tuple(components)
        names = [component.name for component in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"component names must be unique: {names}")
        self._position = {
            component: position for position, component in enumerate(self.components)
        }
        # per action class, the route of each key, and under None the
        # route of the class's other actions (its rows for every action)
        self._routes: Dict[Type[Any], Dict[Optional[Hashable], Route]] = {}
        keyed: List[Tuple[IOAutomaton, Type[Any], Collection[Hashable], bool]] = []
        unrouted: List[IOAutomaton] = []
        for component in self.components:
            rows = component.signature()
            if rows is None:
                unrouted.append(component)
                continue
            for cls, keys, is_output in rows:
                if keys is None:
                    table = self._routes.setdefault(cls, {})
                    route = (component,), component if is_output else None
                    table[None] = self._merge(cls, None, table.get(None), route)
                else:
                    keyed.append((component, cls, keys, is_output))
        for component, cls, keys, is_output in keyed:
            table = self._routes.setdefault(cls, {})
            route = self._merge(
                cls,
                keys,
                table.get(None),
                ((component,), component if is_output else None),
            )
            if table.keys().isdisjoint(keys):
                table.update(dict.fromkeys(keys, route))
                continue
            for key in keys:
                table[key] = self._merge(cls, key, table.get(key), route)
        self._unrouted: Tuple[IOAutomaton, ...] = tuple(unrouted)
        # one-slot memo: the driver asks for the participants of the
        # action it has just applied through ``effect``
        self._routed: Tuple[Optional[Action], Route] = (None, _NOWHERE)

    def _merge(
        self, cls: Type[Any], keys: Any, first: Optional[Route], second: Route
    ) -> Route:
        """The route holding both routes' participants, in component
        order; raises when each has another owner."""
        if first is None:
            return second
        owner = first[1]
        if owner is None:
            owner = second[1]
        elif second[1] is not None and second[1] is not owner:
            names = sorted(c.name for c in (owner, second[1]))
            raise ValueError(
                f"{cls.__name__} actions keyed {keys} are an output of "
                f"multiple components: {names}"
            )
        position = self._position.__getitem__
        if position(first[0][-1]) < position(second[0][0]):
            return first[0] + second[0], owner
        return tuple(sorted(set(first[0] + second[0]), key=position)), owner

    def _route(self, action: Action) -> Route:
        """``action``'s participants, in component order, and the one
        among them that has it as an output, if any.  Raises when two
        components output ``action`` (strong compatibility)."""
        routed, route = self._routed
        if action is routed:
            return route
        table = self._routes.get(type(action))
        if table is None:
            route = _NOWHERE
        else:
            route = table.get(signature_key(action)) or table.get(None, _NOWHERE)
        if self._unrouted:
            route = self._consult_unrouted(action, route)
        self._routed = (action, route)
        return route

    def _consult_unrouted(self, action: Action, route: Route) -> Route:
        """``route`` with the components without a table whose
        signature holds ``action`` merged in, in component order."""
        participants, owner = route
        found = [c for c in self._unrouted if c.is_action(action)]
        if not found:
            return route
        for component in found:
            if component.is_output(action):
                if owner is not None:
                    raise ValueError(
                        f"{action} is an output of multiple components: "
                        f"{[owner.name, component.name]}"
                    )
                owner = component
        merged = sorted(participants + tuple(found), key=self._position.__getitem__)
        return tuple(merged), owner

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
