"""Post-run trace analysis: per-transaction summaries and latency metrics.

Turns a recorded behavior into the operational questions an engineer
asks of a run: which transactions committed, how long each was live
(in events — the simulation's clock), how long accesses waited to be
answered, and the shape of the transaction tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.actions import (
    Abort,
    Action,
    Commit,
    Create,
    RequestCommit,
    RequestCreate,
)
from ..core.names import SystemType, TransactionName

__all__ = ["TransactionSummary", "TraceAnalysis", "analyze_trace"]


@dataclass
class TransactionSummary:
    """Lifecycle positions (event indices) of one transaction."""

    transaction: TransactionName
    requested_at: Optional[int] = None
    created_at: Optional[int] = None
    responded_at: Optional[int] = None  # accesses only
    completed_at: Optional[int] = None
    outcome: str = "incomplete"  # committed | aborted | incomplete
    is_access: bool = False

    @property
    def lifetime(self) -> Optional[int]:
        """Events between creation request and completion, if both exist."""
        if self.requested_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.requested_at

    @property
    def response_latency(self) -> Optional[int]:
        """Events between an access's CREATE and its response."""
        if self.created_at is None or self.responded_at is None:
            return None
        return self.responded_at - self.created_at


@dataclass
class TraceAnalysis:
    """Aggregated view of one run's behavior."""

    transactions: Dict[TransactionName, TransactionSummary]

    def committed(self) -> List[TransactionSummary]:
        return [s for s in self.transactions.values() if s.outcome == "committed"]

    def aborted(self) -> List[TransactionSummary]:
        return [s for s in self.transactions.values() if s.outcome == "aborted"]

    def accesses(self) -> List[TransactionSummary]:
        return [s for s in self.transactions.values() if s.is_access]

    def children_of(self, parent: TransactionName) -> List[TransactionSummary]:
        return sorted(
            (
                s
                for s in self.transactions.values()
                if not s.transaction.is_root and s.transaction.parent == parent
            ),
            key=lambda s: s.transaction,
        )

    def mean_access_latency(self) -> Optional[float]:
        latencies = [
            s.response_latency
            for s in self.accesses()
            if s.response_latency is not None
        ]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    def mean_commit_lifetime(self) -> Optional[float]:
        lifetimes = [
            s.lifetime for s in self.committed() if s.lifetime is not None
        ]
        if not lifetimes:
            return None
        return sum(lifetimes) / len(lifetimes)

    def tree_lines(self, root: TransactionName, indent: str = "") -> List[str]:
        """Render the subtree under ``root`` as indented text lines."""
        lines: List[str] = []
        for summary in self.children_of(root):
            label = summary.transaction.path[-1]
            extra = ""
            if summary.is_access and summary.response_latency is not None:
                extra = f" (answered after {summary.response_latency} events)"
            lines.append(f"{indent}{label}: {summary.outcome}{extra}")
            lines.extend(self.tree_lines(summary.transaction, indent + "  "))
        return lines


def analyze_trace(
    behavior: Sequence[Action], system_type: SystemType
) -> TraceAnalysis:
    """Build a :class:`TraceAnalysis` from a behavior."""
    summaries: Dict[TransactionName, TransactionSummary] = {}

    def summary(transaction: TransactionName) -> TransactionSummary:
        if transaction not in summaries:
            summaries[transaction] = TransactionSummary(
                transaction, is_access=system_type.is_access(transaction)
            )
        return summaries[transaction]

    for position, action in enumerate(behavior):
        if isinstance(action, RequestCreate):
            entry = summary(action.transaction)
            if entry.requested_at is None:
                entry.requested_at = position
        elif isinstance(action, Create):
            entry = summary(action.transaction)
            if entry.created_at is None:
                entry.created_at = position
        elif isinstance(action, RequestCommit) and system_type.is_access(
            action.transaction
        ):
            entry = summary(action.transaction)
            if entry.responded_at is None:
                entry.responded_at = position
        elif isinstance(action, Commit):
            entry = summary(action.transaction)
            if entry.completed_at is None:
                entry.completed_at = position
                entry.outcome = "committed"
        elif isinstance(action, Abort):
            entry = summary(action.transaction)
            if entry.completed_at is None:
                entry.completed_at = position
                entry.outcome = "aborted"
    return TraceAnalysis(summaries)
