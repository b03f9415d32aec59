"""Scheduling policies: how the driver resolves the system's nondeterminism.

A policy picks the next action from the set of enabled locally-controlled
actions.  All policies are deterministic given their seed, so every run
is reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from ..core.actions import (
    Abort,
    Action,
    Commit,
    Create,
    InformAbort,
    InformCommit,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)

__all__ = [
    "SchedulingPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "EagerInformPolicy",
    "OrphanFreePolicy",
]


class SchedulingPolicy(ABC):
    """Chooses one of the currently enabled actions (or None to stop)."""

    @abstractmethod
    def choose(self, enabled: Sequence[Action]) -> Optional[Action]: ...

    def observe(self, action: Action) -> None:
        """Called by the driver after each applied action (including ones
        the driver injected itself, e.g. deadlock-victim aborts)."""


class RandomPolicy(SchedulingPolicy):
    """Uniformly random choice — maximal interleaving stress."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def choose(self, enabled: Sequence[Action]) -> Optional[Action]:
        if not enabled:
            return None
        return self.rng.choice(enabled)


class RoundRobinPolicy(SchedulingPolicy):
    """Cycles through action kinds, favouring fairness over randomness."""

    _ORDER = (
        Create,
        RequestCommit,
        Commit,
        InformCommit,
        InformAbort,
        ReportCommit,
        ReportAbort,
        RequestCreate,
    )

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, enabled: Sequence[Action]) -> Optional[Action]:
        if not enabled:
            return None
        kinds = len(self._ORDER)
        for offset in range(kinds):
            kind = self._ORDER[(self._cursor + offset) % kinds]
            matches = [action for action in enabled if isinstance(action, kind)]
            if matches:
                self._cursor = (self._cursor + offset + 1) % kinds
                return matches[0]
        return list(enabled)[0]


class EagerInformPolicy(SchedulingPolicy):
    """Random, but always delivers pending INFORMs and reports first.

    Keeping objects promptly informed lets Moss locking inherit locks
    leaf-to-root without artificial blocking — the configuration real
    systems approximate.

    The driver hands it the pending reports and informs before each
    choice (:meth:`offer_owed`); offered nothing, it filters them out of
    the enabled list.  Both give the same list, so the same draw.
    """

    _URGENT = (InformCommit, InformAbort, ReportCommit, ReportAbort)

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self._owed: Optional[Sequence[Action]] = None

    def offer_owed(self, owed: Sequence[Action]) -> None:
        """Called by the driver with the enabled reports and informs, in
        the order the enabled list holds them (the generic controller's
        ``owed`` tuple); the next :meth:`choose` draws from them."""
        self._owed = owed

    def choose(self, enabled: Sequence[Action]) -> Optional[Action]:
        urgent, self._owed = self._owed, None
        if not enabled:
            return None
        if urgent is None:
            urgent = [action for action in enabled if isinstance(action, self._URGENT)]
        return self.rng.choice(urgent or enabled)


class OrphanFreePolicy(SchedulingPolicy):
    """Filter orphan activity out of another policy's choices.

    The model deliberately allows orphans — descendants of aborted
    transactions — to keep taking steps (the theorems hold regardless,
    and the orphan-management algorithms of the literature are about
    *limiting* that wasted work).  This wrapper implements the simplest
    such limiter: it tracks the aborts it has scheduled and never again
    chooses a CREATE, REQUEST_CREATE or access response on behalf of an
    orphan.  Reports and informs still flow, so the rest of the system
    learns about the aborts.
    """

    def __init__(self, base: SchedulingPolicy) -> None:
        self.base = base
        self.aborted: set = set()
        self.filtered_out = 0

    def _is_orphan_work(self, action: Action) -> bool:
        if not isinstance(action, (Create, RequestCreate, RequestCommit)):
            return False
        return any(
            ancestor in self.aborted
            for ancestor in action.transaction.ancestors()
        )

    def choose(self, enabled: Sequence[Action]) -> Optional[Action]:
        useful = [a for a in enabled if not self._is_orphan_work(a)]
        self.filtered_out += len(enabled) - len(useful)
        choice = self.base.choose(useful)
        if choice is None and enabled and not useful:
            # only orphan work remains; refuse it and end the run
            return None
        return choice

    def observe(self, action: Action) -> None:
        if isinstance(action, Abort):
            self.aborted.add(action.transaction)
        base_observe = getattr(self.base, "observe", None)
        if base_observe is not None:
            base_observe(action)

    def offer_aborts(self, aborts) -> None:
        """Pass through to a wrapped AbortInjector, if any."""
        inner = getattr(self.base, "offer_aborts", None)
        if inner is not None:
            inner(aborts)

    def offer_owed(self, owed) -> None:
        """Pass through to a wrapped EagerInformPolicy, if any: reports
        and informs are never orphan work, so the offer stays exact."""
        inner = getattr(self.base, "offer_owed", None)
        if inner is not None:
            inner(owed)
