"""A brute-force serial-correctness oracle for small instances.

The serialization-graph condition of Theorem 8/19 is *sufficient* but not
necessary.  To measure its precision (experiment E4) and to cross-check
the certifier, this oracle searches for a witness over **all** sibling
orders of the visible transactions, not just the one obtained by
topologically sorting the serialization graph.

The oracle is sound: when it accepts, it has constructed and validated an
actual serial behavior ``gamma`` with ``gamma | T == beta | T`` for every
visible transaction (hence serially correct for ``T0``).  It is complete
with respect to witnesses of that shape — serial executions that replay
each visible transaction's local sequence verbatim — which covers every
behavior the theorems of the paper can certify and more.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set

from .actions import Action, Behavior
from .correctness import WitnessError, build_witness, validate_serial_behavior
from .events import StatusIndex, project_transaction, serial_projection
from .history import HistoryIndex
from .names import ROOT, SystemType, TransactionName
from .sibling_order import SiblingOrder

__all__ = ["OracleResult", "oracle_serially_correct", "enumerate_sibling_orders"]


@dataclass
class OracleResult:
    """Outcome of the brute-force search."""

    correct: bool
    orders_tried: int
    witness: Optional[Behavior] = None
    order: Optional[SiblingOrder] = None
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.correct


def _sibling_groups(
    index: StatusIndex, visible: Set[TransactionName]
) -> Dict[TransactionName, List[TransactionName]]:
    """Visible children grouped under their (visible) parents."""
    groups: Dict[TransactionName, List[TransactionName]] = {}
    for transaction in sorted(visible):
        if transaction.is_root:
            continue
        parent = transaction.parent
        if parent in visible:
            groups.setdefault(parent, []).append(transaction)
    return groups


def enumerate_sibling_orders(
    behavior: Sequence[Action],
    limit: Optional[int] = None,
    index: Optional[StatusIndex] = None,
) -> Iterator[SiblingOrder]:
    """Yield every total sibling order over the visible transactions.

    The number of orders is the product of factorials of the sibling
    group sizes; ``limit`` truncates the enumeration (the caller learns
    about truncation through :class:`OracleResult`).  Pass the caller's
    :class:`repro.core.history.HistoryIndex` to reuse its memoized
    visibility instead of re-indexing.
    """
    serial = serial_projection(behavior)
    if index is None or not (
        isinstance(index, HistoryIndex) and index.covers(serial)
    ):
        index = HistoryIndex(serial)
    visible = {
        t
        for t in (index.create_requested | index.created | {ROOT})
        if index.is_visible(t, ROOT)
    }
    groups = _sibling_groups(index, visible)
    parents = sorted(groups)
    permutation_sets = [
        list(itertools.permutations(groups[parent])) for parent in parents
    ]
    count = 0
    for combination in itertools.product(*permutation_sets):
        if limit is not None and count >= limit:
            return
        count += 1
        yield SiblingOrder(dict(zip(parents, combination)))


def oracle_serially_correct(
    behavior: Sequence[Action],
    system_type: SystemType,
    max_orders: int = 50_000,
) -> OracleResult:
    """Search all sibling orders for a valid serial witness.

    Accepts as soon as one order yields a witness that validates against
    the serial scheduler rules and every object's serial specification.
    One :class:`repro.core.history.HistoryIndex` serves the whole search:
    its memoized visibility and cached ``beta | T`` slices are shared by
    the order enumeration and every witness attempt.
    """
    serial = serial_projection(behavior)
    index = HistoryIndex(serial, system_type)
    tried = 0
    truncated = False
    orders = enumerate_sibling_orders(serial, limit=max_orders + 1, index=index)
    for order in orders:
        if tried >= max_orders:
            truncated = True
            break
        tried += 1
        try:
            witness = build_witness(serial, system_type, order, index)
        except WitnessError:
            continue
        if validate_serial_behavior(witness, system_type):
            continue
        # each enumerated order projects its new candidate witness once
        if project_transaction(witness, ROOT) != project_transaction(  # lint: allow-quadratic
            serial, ROOT, index
        ):
            continue
        return OracleResult(True, tried, witness=witness, order=order)
    return OracleResult(False, tried, truncated=truncated)
