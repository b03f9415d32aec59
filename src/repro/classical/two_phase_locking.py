"""Strict two-phase locking for flat transactions — the classical baseline.

A small executor that schedules flat transactions' read/write scripts
under strict 2PL: a transaction acquires a shared lock to read and an
exclusive lock to write, and releases everything at commit.  Deadlocks
are *avoided* with the classical wait-die scheme (Rosenkrantz et al.):
a requester older than every incompatible lock holder waits; a younger
requester dies (aborts, releasing its locks) and retries later with its
**inherited** timestamp, so every transaction eventually becomes oldest
and completes — no waits-for cycle can form and no livelock occurs.

Every produced history is conflict-serializable (checked in tests
against :mod:`repro.classical.sgt`), giving experiment E5 a generator of
realistic serializable flat histories — and, via
:func:`repro.classical.histories.history_to_nested_behavior`, a stream
of depth-1 nested behaviors the paper's construction must certify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from .histories import FlatAbort, FlatCommit, FlatRead, FlatStep, FlatWrite, History

__all__ = ["FlatScript", "run_strict_2pl"]


@dataclass
class FlatScript:
    """A flat transaction's program: a list of (kind, object, data) steps."""

    name: str
    steps: List[Tuple[str, str, int]]  # ("r"|"w", object, data)

    @classmethod
    def random(
        cls,
        name: str,
        objects: int,
        length: int,
        rng: random.Random,
        write_probability: float = 0.5,
    ) -> "FlatScript":
        steps = []
        for _ in range(length):
            obj = f"x{rng.randrange(objects)}"
            if rng.random() < write_probability:
                steps.append(("w", obj, rng.randrange(100)))
            else:
                steps.append(("r", obj, 0))
        return cls(name, steps)


@dataclass
class _TxnState:
    script: FlatScript
    birth: int
    position: int = 0
    shared: Set[str] = field(default_factory=set)
    exclusive: Set[str] = field(default_factory=set)
    deaths: int = 0
    sleep_until: int = 0
    done: bool = False


def run_strict_2pl(
    scripts: Sequence[FlatScript],
    seed: int = 0,
    max_rounds: int = 100_000,
) -> Tuple[History, int]:
    """Execute the scripts under strict 2PL with wait-die avoidance.

    Returns ``(history, aborts)``: the interleaved flat history (with an
    abort marker per wait-die death; each victim is retried under a
    ``#retryN``-suffixed name until it commits) and the death count.
    """
    rng = random.Random(seed)
    states: Dict[str, _TxnState] = {}
    for birth, script in enumerate(scripts):
        states[script.name] = _TxnState(script=script, birth=birth)
    history: List[FlatStep] = []
    shared_locks: Dict[str, Set[str]] = {}
    exclusive_locks: Dict[str, str] = {}
    deaths = 0
    retry_counter = 0

    def release_all(txn: _TxnState) -> None:
        for obj in txn.shared:
            shared_locks.get(obj, set()).discard(txn.script.name)
        for obj in txn.exclusive:
            if exclusive_locks.get(obj) == txn.script.name:
                del exclusive_locks[obj]
        txn.shared.clear()
        txn.exclusive.clear()

    def incompatible_holders(name: str, obj: str, kind: str) -> Set[str]:
        holders: Set[str] = set()
        exclusive = exclusive_locks.get(obj)
        if exclusive is not None and exclusive != name:
            holders.add(exclusive)
        if kind == "w":
            holders |= shared_locks.get(obj, set()) - {name}
        return holders

    for round_number in range(max_rounds):
        runnable = [
            t
            for t in states.values()
            if not t.done and t.sleep_until <= round_number
        ]
        if not runnable:
            if all(t.done for t in states.values()):
                break
            continue  # everyone backing off; let the clock advance
        rng.shuffle(runnable)
        for txn in runnable:
            name = txn.script.name
            if txn.position >= len(txn.script.steps):
                history.append(FlatCommit(name))
                release_all(txn)
                txn.done = True
                continue
            kind, obj, data = txn.script.steps[txn.position]
            blockers = incompatible_holders(name, obj, kind)
            if not blockers:
                if kind == "r":
                    shared_locks.setdefault(obj, set()).add(name)
                    txn.shared.add(obj)
                    history.append(FlatRead(name, obj))
                else:
                    exclusive_locks[obj] = name
                    txn.exclusive.add(obj)
                    history.append(FlatWrite(name, obj, data))
                txn.position += 1
                continue
            oldest_blocker = min(states[holder].birth for holder in blockers)
            if txn.birth < oldest_blocker:
                continue  # older than every holder: wait politely
            # wait-die: the younger requester dies and retries later,
            # keeping its original timestamp so it cannot starve.
            release_all(txn)
            history.append(FlatAbort(name))
            deaths += 1
            retry_counter += 1
            del states[name]
            retry_name = f"{txn.script.name.split('#', 1)[0]}#retry{retry_counter}"
            retry = _TxnState(
                script=FlatScript(retry_name, list(txn.script.steps)),
                birth=txn.birth,
                deaths=txn.deaths + 1,
                sleep_until=round_number + 1 + min(txn.deaths, 8),
            )
            states[retry_name] = retry
    return tuple(history), deaths
