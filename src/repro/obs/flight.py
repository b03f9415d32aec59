"""Violation flight recorder: a bounded action window dumped on failure.

When the online certifier latches a cycle (or a return-value legality
check flips to illegal) the interesting evidence is the *recent past* —
the actions that closed the cycle — and by the time anyone looks at the
run, that window is gone.  A :class:`FlightRecorder` keeps it: a fixed
capacity ring of the last N ``(position, action)`` pairs per session,
appended to on the hot path at deque cost (no serialization, no I/O).

Only when a violation fires does :meth:`dump` do real work: the window
is serialized (action type name plus its paper-style ``str()`` form),
bundled with the trigger reason, the cycle witness if one latched, an
optional metrics snapshot, and free-form context, then appended as one
JSON line to the post-mortem file.  Dumps are bounded by ``max_dumps``
so a pathological workload cannot fill a disk, and counted in the
``online.flight.dumps`` counter when a registry is attached.

This module deliberately knows nothing about :mod:`repro.core` — the
recorder accepts any action object (it relies only on ``str()`` and the
type name), which keeps ``obs`` import-cycle-free and reusable.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .metrics import MetricsRegistry

__all__ = ["FlightRecorder"]


def _serialize_action(action: object) -> Dict[str, str]:
    return {"kind": type(action).__name__, "action": str(action)}


def _serialize_cycle(cycle: object) -> Optional[Dict[str, Any]]:
    """A cycle witness ``(parent, [nodes...])`` as JSON-friendly strings."""
    if cycle is None:
        return None
    try:
        parent, nodes = cycle  # type: ignore[misc]
    except (TypeError, ValueError):
        return {"raw": str(cycle)}
    return {"parent": str(parent), "nodes": [str(node) for node in nodes]}


class FlightRecorder:
    """Bounded ring of recent actions, dumped to JSONL on violation.

    ``record`` is the hot-path call: one ``deque.append`` of an already
    existing tuple, nothing else.  ``dump`` is the cold-path call and
    the only place that serializes or touches the filesystem (the file
    is opened in append mode per dump — dumps are rare by construction).
    """

    def __init__(
        self,
        path: Union[str, Path],
        capacity: int = 256,
        max_dumps: int = 16,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if max_dumps <= 0:
            raise ValueError("max_dumps must be positive")
        self.path = Path(path)
        self.capacity = capacity
        self.max_dumps = max_dumps
        self.metrics = metrics
        self.dumps = 0
        self._window: "deque[Tuple[int, object]]" = deque(maxlen=capacity)

    def record(self, position: int, action: object) -> None:
        """Append one action to the ring (O(1), no serialization)."""
        self._window.append((position, action))

    def __len__(self) -> int:
        return len(self._window)

    def window(self) -> Tuple[Tuple[int, object], ...]:
        """The current (position, action) window, oldest first."""
        return tuple(self._window)

    def dump(
        self,
        reason: str,
        session: str = "",
        cycle: object = None,
        metrics_snapshot: Optional[Dict[str, Any]] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Write one post-mortem record; returns False once over budget.

        ``reason`` identifies the trigger (``"cycle"`` for an SG cycle
        latch, ``"arv"`` for a return-value legality violation); the
        record carries the serialized action window, the cycle witness
        (if any), the metrics snapshot (if given) and the context dict
        verbatim.
        """
        if self.dumps >= self.max_dumps:
            return False
        self.dumps += 1
        if self.metrics is not None:
            self.metrics.inc("online.flight.dumps")
        record = {
            "time": time.time(),
            "reason": reason,
            "session": session,
            "window": [
                {"position": position, **_serialize_action(action)}
                for position, action in self._window
            ],
            "cycle": _serialize_cycle(cycle),
            "metrics": metrics_snapshot,
            "context": context or {},
        }
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        return True
