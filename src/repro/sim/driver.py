"""The simulation driver: runs a composed system to a finite behavior.

The paper's theorems quantify over *all* finite behaviors of a generic
system; the driver produces such behaviors by repeatedly asking the
composition for its enabled locally-controlled actions and letting a
:class:`repro.sim.policies.SchedulingPolicy` choose among them.  Seeded
policies make every run reproducible; the
:class:`repro.sim.faults.AbortInjector` wrapper adds failures.

Every run ends either quiescent (nothing enabled — including genuine
Moss-locking deadlocks, whose behaviors are still finite behaviors the
theorems cover) or at the step limit.  The returned :class:`RunResult`
carries the behavior, ready for the Theorem 8/19 certifier.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Tuple

from ..automata.composition import Composition
from ..core.actions import (
    Abort,
    Action,
    Behavior,
    Commit,
    RequestCommit,
)
from ..core.names import SystemType, TransactionName
from ..generic.controller import GenericController
from ..generic.objects import GenericObject
from .policies import SchedulingPolicy
from .stats import RunStats

__all__ = ["RunResult", "run_system"]


@dataclass
class RunResult:
    """The outcome of one simulated run."""

    behavior: Behavior
    stats: RunStats
    final_state: dict


def run_system(
    system: Composition,
    policy: SchedulingPolicy,
    system_type: SystemType,
    max_steps: int = 10_000,
    collect_blocking: bool = False,
    resolve_deadlocks: bool = False,
) -> RunResult:
    """Run ``system`` under ``policy`` until quiescence or ``max_steps``.

    With ``collect_blocking``, each step also counts accesses that are
    invoked but not currently serviceable (concurrency denied by the
    object algorithms) — the E7 metric.

    Each step calls ``policy.choose`` once with the enabled list, the
    controller's owed reports and informs (its ``owed`` tuple: exactly
    the enabled list's reports and informs, in its order) and the
    controller's enabled aborts.

    With ``resolve_deadlocks``, a stuck state (nothing enabled but some
    access invoked and blocked — a genuine locking deadlock) is broken
    the way deployed systems do: the top-level ancestor of the least
    blocked access is aborted, releasing its subtree's locks.  Victim
    aborts are counted in ``stats.deadlock_aborts``.
    """
    state = system.initial_state()
    trace: List[Action] = []
    stats = RunStats()
    controller = next(
        component
        for component in system.components
        if isinstance(component, GenericController)
    )
    objects = [
        component
        for component in system.components
        if isinstance(component, GenericObject)
    ]

    # Per-component caches of enabled outputs, by position in component
    # order: a component's enabledness depends only on its own state,
    # and effects are pure, so its outputs change only when
    # ``Composition.effect`` hands it a new state object — after each
    # step only the action's participants can have one, and only those
    # that do are re-queried.  ``live`` holds the positions of the
    # non-empty caches in component order, and only those are joined,
    # so the enabled list keeps the uncached driver's order exactly
    # (component order, then each component's own order) and seeded
    # runs are identical to it.  Strongly compatible components share no
    # outputs, so the caches concatenate without duplicates
    # (``Composition.effect`` rejects an action that two components
    # output).
    position = {
        component.name: at for at, component in enumerate(system.components)
    }
    outputs = [
        list(component.enabled_outputs(state[component.name]))
        for component in system.components
    ]
    live = [at for at, cached in enumerate(outputs) if cached]
    cache_at = outputs.__getitem__

    def pick_deadlock_victim() -> Optional[Abort]:
        # Called only when nothing is enabled, so every waiting access
        # is blocked: the least one, in the names' own order (paths,
        # compared in C), whose top-level ancestor may still abort.
        # Each object's waiting accesses are in name order, so its
        # candidate is the first whose top-level path is among the
        # controller's name-ordered abortable paths.
        abortable = state[controller.name].abortable_keys
        least: Optional[Tuple[str, ...]] = None
        for generic_object in objects:
            for access in state[generic_object.name].waiting:
                top = access.path[:1]
                at = bisect_left(abortable, top)
                if at < len(abortable) and abortable[at] == top:
                    if least is None or access.path < least:
                        least = access.path
                    break
        return None if least is None else Abort(TransactionName.interned(least[:1]))

    while stats.steps < max_steps:
        enabled: List[Action] = list(chain.from_iterable(map(cache_at, live)))
        controller_state = state[controller.name]
        aborts = controller.enabled_aborts(controller_state)
        choice = policy.choose(enabled, controller_state.owed, aborts)
        if choice is None:
            if resolve_deadlocks and not enabled:
                victim = pick_deadlock_victim()
                if victim is not None:
                    choice = victim
                    stats.deadlock_aborts += 1
            if choice is None:
                stats.quiescent = not enabled
                break
        previous, state = state, system.effect(state, choice)
        for component in system.participants(choice):
            name = component.name
            component_state = state[name]
            if component_state is not previous[name]:
                at = position[name]
                fresh = list(component.enabled_outputs(component_state))
                if not fresh:
                    if outputs[at]:
                        live.remove(at)
                elif not outputs[at]:
                    insort(live, at)
                outputs[at] = fresh
        trace.append(choice)
        policy.observe(choice)
        stats.steps += 1
        kind = type(choice)
        stats.count(kind.__name__)
        if kind is Commit:
            stats.committed += 1
            if choice.transaction.depth == 1:
                stats.top_level_committed += 1
        elif kind is Abort:
            stats.aborted += 1
        elif kind is RequestCommit and system_type.is_access(choice.transaction):
            stats.accesses_answered += 1
        if collect_blocking:
            for generic_object in objects:
                stats.blocked_access_steps += sum(
                    1 for _ in generic_object.blocked_accesses(state[generic_object.name])
                )
    return RunResult(tuple(trace), stats, state)
