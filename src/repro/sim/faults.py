"""Fault injection: abort storms, scripted fates, and site failures.

The generic controller may abort any requested, uncompleted transaction
at any time.  :class:`AbortInjector` wraps a base scheduling policy and,
with a configured probability per step, injects one of the currently
enabled ABORT actions instead of the base policy's choice.  Victims can
be filtered (e.g. only subtransactions, never top-level ones).

Two additions serve the distributed layer (:mod:`repro.distributed`):

* :class:`SiteCrash` / :class:`SiteRecovery` are the timed whole-site
  fault events of a multi-site cluster schedule.  A crash dooms every
  transaction that accessed the site before completing; a recovery
  brings the site back subject to the recovery-time write barrier on
  replicated variables.
* :class:`ScriptedAbortInjector` realises such pre-decided fates inside
  a (site-local) simulated run: unlike :class:`AbortInjector`'s random
  storms, its victim set is fixed up front, and the abort always wins a
  race against the victim's own COMMIT — a transaction doomed by a site
  crash can never slip through to a commit at that site, which is what
  keeps cross-site outcomes atomic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, Optional, Sequence

from ..core.actions import Abort, Action, Commit
from ..core.names import TransactionName
from .policies import SchedulingPolicy

__all__ = [
    "AbortInjector",
    "ScriptedAbortInjector",
    "SiteCrash",
    "SiteRecovery",
]


@dataclass(frozen=True, order=True)
class SiteCrash:
    """A whole-site failure at a scheduled routing step.

    Interpreted by :func:`repro.distributed.route_workload`: the site
    stops serving reads and writes, every transaction that touched it
    without completing is doomed, and its replicated variables arm the
    recovery-time write barrier.
    """

    site: int
    at_step: int


@dataclass(frozen=True, order=True)
class SiteRecovery:
    """A site coming back up at a scheduled routing step.

    Non-replicated variables at the site are readable immediately (the
    single copy cannot be stale); replicated variables stay unreadable
    until a fresh write lands — the recovery-time write barrier.
    """

    site: int
    at_step: int


class AbortInjector(SchedulingPolicy):
    """Inject ABORTs with probability ``abort_rate`` per scheduling step."""

    def __init__(
        self,
        base: SchedulingPolicy,
        abort_rate: float,
        seed: int = 0,
        victim_filter: Optional[Callable[[TransactionName], bool]] = None,
        max_aborts: Optional[int] = None,
    ) -> None:
        if not 0.0 <= abort_rate <= 1.0:
            raise ValueError("abort_rate must be a probability")
        self.base = base
        self.abort_rate = abort_rate
        self.rng = random.Random(seed)
        self.victim_filter = victim_filter
        self.max_aborts = max_aborts
        self.aborts_injected = 0

    def observe(self, action: Action) -> None:
        self.base.observe(action)

    def choose(
        self,
        enabled: Sequence[Action],
        owed: Sequence[Action],
        aborts: Sequence[Abort],
    ) -> Optional[Action]:
        candidates = aborts
        if self.victim_filter is not None:
            candidates = [
                abort
                for abort in candidates
                if self.victim_filter(abort.transaction)
            ]
        budget_left = self.max_aborts is None or self.aborts_injected < self.max_aborts
        if candidates and budget_left and self.rng.random() < self.abort_rate:
            self.aborts_injected += 1
            return self.rng.choice(candidates)
        return self.base.choose(enabled, owed, aborts)


class ScriptedAbortInjector(SchedulingPolicy):
    """Abort a pre-decided victim set, always beating the victims' commits.

    ``victims`` are transaction names whose fate has been decided outside
    the run — in :mod:`repro.distributed`, the transactions doomed by a
    site crash or an unreachable replica.  Each scheduling step, if any
    victim's ABORT is currently enabled, it is injected with probability
    ``inject_rate`` (default: immediately); independent of the rate, the
    abort *always* fires before a step that could COMMIT a victim, and
    victim commits are stripped from the choices offered to the base
    policy — a scripted fate is never lost to a scheduling race, even
    when the victim's REQUEST_COMMIT is already in flight.
    """

    def __init__(
        self,
        base: SchedulingPolicy,
        victims: Iterable[TransactionName],
        seed: int = 0,
        inject_rate: float = 1.0,
    ) -> None:
        if not 0.0 < inject_rate <= 1.0:
            raise ValueError("inject_rate must be in (0, 1]")
        self.base = base
        self.victims: FrozenSet[TransactionName] = frozenset(victims)
        self.rng = random.Random(seed)
        self.inject_rate = inject_rate
        self.aborts_injected = 0

    def observe(self, action: Action) -> None:
        self.base.observe(action)

    def choose(
        self,
        enabled: Sequence[Action],
        owed: Sequence[Action],
        aborts: Sequence[Abort],
    ) -> Optional[Action]:
        candidates = [
            abort
            for abort in aborts
            if abort.transaction in self.victims
        ]
        if candidates:
            commit_imminent = any(
                isinstance(action, Commit) and action.transaction in self.victims
                for action in enabled
            )
            if commit_imminent or self.rng.random() < self.inject_rate:
                self.aborts_injected += 1
                return self.rng.choice(candidates)
        safe = [
            action
            for action in enabled
            if not (
                isinstance(action, Commit) and action.transaction in self.victims
            )
        ]
        return self.base.choose(safe, owed, aborts)
