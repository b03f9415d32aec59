"""Run statistics collected by the simulation driver."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Sequence

from ..obs.metrics import MetricsRegistry

__all__ = ["RunStats"]


@dataclass
class RunStats:
    """Counters describing one simulated run of a generic system."""

    steps: int = 0
    action_counts: Dict[str, int] = field(default_factory=dict)
    committed: int = 0
    aborted: int = 0
    top_level_committed: int = 0
    accesses_answered: int = 0
    blocked_access_steps: int = 0
    deadlock_aborts: int = 0
    quiescent: bool = False

    def count(self, kind: str) -> None:
        self.action_counts[kind] = self.action_counts.get(kind, 0) + 1

    @classmethod
    def merged(cls, runs: Sequence["RunStats"]) -> "RunStats":
        """The counters of several runs, summed field by field; quiescent
        only when every run drained."""
        total = cls(quiescent=bool(runs) and all(run.quiescent for run in runs))
        for run in runs:
            for counter in fields(cls):
                name = counter.name
                mine, theirs = getattr(total, name), getattr(run, name)
                if isinstance(theirs, dict):
                    for kind, count in theirs.items():
                        mine[kind] = mine.get(kind, 0) + count
                elif not isinstance(theirs, bool):
                    setattr(total, name, mine + theirs)
        return total

    def to_dict(self) -> Dict[str, object]:
        """All counters as a JSON-serializable dict (``--stats-json``)."""
        return {
            "steps": self.steps,
            "action_counts": dict(self.action_counts),
            "committed": self.committed,
            "aborted": self.aborted,
            "top_level_committed": self.top_level_committed,
            "accesses_answered": self.accesses_answered,
            "blocked_access_steps": self.blocked_access_steps,
            "deadlock_aborts": self.deadlock_aborts,
            "quiescent": self.quiescent,
        }

    def record(self, metrics: MetricsRegistry) -> None:
        """Publish the run's counters into ``metrics``, once, after the run.

        ``driver.*`` counts the executed steps, per action class and the
        deadlock victims; ``controller.*`` the commits (top-level ones
        split out) and aborts.  A counter is created only when its
        count is non-zero, and the ``driver.quiescent`` gauge only when
        the run drained.
        """
        if self.steps:
            metrics.inc("driver.steps", self.steps)
        for kind, count in self.action_counts.items():
            metrics.inc(f"driver.action.{kind}", count)
        if self.quiescent:
            metrics.set_gauge("driver.quiescent", 1)
        if self.deadlock_aborts:
            metrics.inc("driver.deadlock_aborts", self.deadlock_aborts)
        if self.committed:
            metrics.inc("controller.commits", self.committed)
        if self.top_level_committed:
            metrics.inc("controller.top_level_commits", self.top_level_committed)
        if self.aborted:
            metrics.inc("controller.aborts", self.aborted)

    def summary(self) -> str:
        return (
            f"steps={self.steps} committed={self.committed} aborted={self.aborted} "
            f"top_level_committed={self.top_level_committed} "
            f"accesses={self.accesses_answered} "
            f"blocked_access_steps={self.blocked_access_steps} "
            f"deadlock_aborts={self.deadlock_aborts} "
            f"quiescent={self.quiescent}"
        )
