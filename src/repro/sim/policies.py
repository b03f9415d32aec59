"""Scheduling policies: how the driver resolves the system's nondeterminism.

A policy picks the next action from the set of enabled locally-controlled
actions, the reports and informs among them, and the aborts the
controller may perform.  All policies are deterministic given their
seed, so every run is reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional, Sequence

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
    """Chooses the next action (or None to stop).

    The driver calls :meth:`choose` once per step with the enabled
    locally-controlled actions, the controller's owed reports and
    informs (exactly those of ``enabled``, in its order) and the
    controller's enabled aborts, which ``enabled`` never holds: a run
    aborts a transaction only when its policy picks one of them or the
    driver breaks a deadlock.
    """

    @abstractmethod
    def choose(
        self,
        enabled: Sequence[Action],
        owed: Sequence[Action],
        aborts: Sequence[Abort],
    ) -> Optional[Action]: ...

    def observe(self, action: Action) -> None:
        """Called by the driver after each applied action (including ones
        the driver injected itself, e.g. deadlock-victim aborts)."""


class RandomPolicy(SchedulingPolicy):
    """Uniformly random choice — maximal interleaving stress."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def choose(
        self,
        enabled: Sequence[Action],
        owed: Sequence[Action],
        aborts: Sequence[Abort],
    ) -> Optional[Action]:
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

    def choose(
        self,
        enabled: Sequence[Action],
        owed: Sequence[Action],
        aborts: Sequence[Abort],
    ) -> Optional[Action]:
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
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def choose(
        self,
        enabled: Sequence[Action],
        owed: Sequence[Action],
        aborts: Sequence[Abort],
    ) -> Optional[Action]:
        if not enabled:
            return None
        return self.rng.choice(owed or enabled)


class OrphanFreePolicy(SchedulingPolicy):
    """Filter orphan activity out of another policy's choices.

    The model deliberately allows orphans — descendants of aborted
    transactions — to keep taking steps (the theorems hold regardless,
    and the orphan-management algorithms of the literature are about
    *limiting* that wasted work).  This wrapper implements the simplest
    such limiter: it tracks the aborts the driver applies (whoever chose
    them) and never again chooses a CREATE, REQUEST_CREATE or access
    response on behalf of an orphan.  Reports and informs still flow, so the rest of the system
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

    def choose(
        self,
        enabled: Sequence[Action],
        owed: Sequence[Action],
        aborts: Sequence[Abort],
    ) -> Optional[Action]:
        # reports and informs are never orphan work, so ``owed`` stays
        # exactly those of the filtered list
        useful = [a for a in enabled if not self._is_orphan_work(a)]
        self.filtered_out += len(enabled) - len(useful)
        return self.base.choose(useful, owed, aborts)

    def observe(self, action: Action) -> None:
        if isinstance(action, Abort):
            self.aborted.add(action.transaction)
        self.base.observe(action)
