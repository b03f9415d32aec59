"""An online (incremental) Theorem 8/19 certifier for streaming audits.

:func:`repro.core.correctness.certify` judges a complete recorded
behavior; :class:`OnlineCertifier` consumes one action at a time and
maintains the same verdict — suitable for monitoring a live system.

The interesting dynamics are in *visibility*: an access's operation
enters ``visible(beta, T0)`` only when its whole ancestor chain has
committed, which can happen long after the operation itself.  A late
commit therefore

* inserts the operation into the middle of each object's visible
  sequence (by original event position), which can flip the legality of
  the operations after it in either direction — the ARV verdict is
  **not** monotone and is re-evaluated from the insertion point;
* adds conflict edges against every visible operation on the same
  object — edges only accumulate, so a cycle verdict *is* monotone and
  latches.

``OnlineCertifier.verdict()`` matches ``certify(prefix, ...)`` (without
witness construction) after every fed prefix; the test suite asserts
that equivalence on random and mutated behaviors.

Transactions are interned through a
:class:`repro.core.columnar.ColumnarHistory` (parents first, ``T0`` is
0), the batch engine's id space, and all bookkeeping is keyed by those
ints; names come back only in ARV messages, the latched cycle, flight
dumps and :attr:`OnlineCertifier.graph`.  Each sibling group stores its
edges once, per target one predecessor bitset per edge kind; a bit is a
node's rank among its siblings, so a bitset is as wide as the group.
The group keeps a topological order beside them in two flat lists (each
placed member's position, the member at each position) and repairs it
Pearce–Kelly style, scanning the positions between an out-of-order
edge's endpoints against the bitsets, so a cycle latches the moment an
insert closes one.  Edges into one target arrive as one bitset OR: a
visible operation's conflicts with the compaction frontier and with
earlier rows of other top-level transactions, and a new request's
precedes edges from its reported siblings.

Prefix compaction
-----------------

With ``compaction=True`` the certifier periodically retires finished
top-level subtrees so memory tracks the *live window* of the stream
instead of its whole history.  The split is by weight:

* **Root-level state is permanent** — the interned ids and their status
  flags, the ``T0`` sibling buckets, and the ``T0`` sibling group of the
  serialization graph.  These grow with the number of top-level
  transactions (an id and a few edges each), exactly as in the
  uncompacted engine, and keeping them is what makes the verdict exact
  even when the stream later references a retired subtree (a late
  report, a late child, a late access under a committed ancestor).
* **Subtree-level state is evicted** — the raw ``_Op`` records with
  their payloads, the per-object visible rows / legality / state
  snapshots, nested sibling groups, and per-parent report/request
  buckets.  This is the per-*event* state, the actual memory driver.

The two halves of the subtree-level state retire on independent
conditions.  Per-object visible rows trim as a **stable prefix**: a row
is stable once its position precedes every still-pending operation on
its object, so no future visibility insertion can land at or before
it, conflict "first" against it, or change the state it observed —
its legality and its contribution to later resume states are final.
Trimming only a leading run keeps the retained sequence hole-free
(every surviving state snapshot still covers the whole evicted
prefix).  A subtree's bookkeeping *record* — op/parent trackers,
nested buckets and sibling groups — drops once the subtree is
**quiescent**: nothing in it still waits for an ancestor commit and
every tracked operation is dead or already visible, so no entry can
ever fire again.  Decoupling the two means a long-running
transaction's settled prefix compacts while the transaction is still
open, and an idle record drops even while its rows are still hot.

Evicted rows are folded into a per-object summary: the state after the
compacted prefix (the base for future front-of-sequence insertions),
the frozen ARV violations (which precede every live row's), and a
**conflict frontier** — bitsets over the ranks of the retired top-level
transactions: an any-access and a writer bitset for read/write objects
(``conflicts_iff_writer``), as the batch conflict sweep keeps, and one
bitset per operation class otherwise.  A later visible operation
derives its cross-subtree conflict edges from the frontier exactly as
the uncompacted engine would from the raw rows (evicted rows always
precede live ones, so the edge direction is fixed and both endpoints
collapse to top-level transactions).  The only edges the compacted
engine ever drops are *nested* edges from an evicted row or report to a
later arrival inside the same retired subtree; on a well-formed
behavior those can never complete a new cycle, because every
counter-edge back into the old portion of a nested group would need a
smaller position than the retired prefix — excluded by stability.
Cycle and ARV verdicts are therefore identical to the uncompacted
engine's on well-formed (simple) behaviors; the latched cycle *witness*
may differ, as edge insertion order does.  Malformed input can break
the argument — a few shuffled mutants of the mutation suite lose a
nested cycle under compaction, though ARV still rejects them — until
the online engine checks its input (ROADMAP item 4(b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer
from .actions import Action
from .columnar import (
    K_ABORT,
    K_COMMIT,
    K_REPORT_COMMIT,
    K_REQUEST_COMMIT,
    K_REQUEST_CREATE,
    ColumnarHistory,
    action_kind,
)
from .history import ConflictCache, spec_is_read_only
from .names import ObjectName, SystemType, TransactionName
from .serialization_graph import CONFLICT, PRECEDES, SerializationGraph, SiblingEdge

__all__ = ["OnlineVerdict", "OnlineCertifier"]

# status flags, one byte per transaction id
_COMMITTED = 1
_ABORTED = 2
# edge kinds: the index of a target's predecessor bitset in its group
_CONFLICT = 0
_PRECEDES = 1
_EDGE_LABELS = (CONFLICT, PRECEDES)


@dataclass(frozen=True)
class OnlineVerdict:
    """The current judgement of the stream consumed so far."""

    certified: bool
    arv_violations: Tuple[str, ...]
    cycle: Optional[Tuple[TransactionName, List[TransactionName]]]


@dataclass(eq=False, slots=True)
class _Object:
    """One object's visible sequence, its columns and compaction summary.

    ``states[i]`` is the object state *after* the i-th visible row, so
    revalidation resumes from the insertion point instead of replaying
    the whole prefix (safe because every serial specification treats
    states as immutable values); ``base`` is the state before the first
    retained row.
    """

    name: ObjectName
    spec: Any
    spec_id: int
    #: read/write-structured: two operations conflict iff one writes
    rw: bool
    base: Any
    rows: List[_Op] = field(default_factory=list)
    legal: List[bool] = field(default_factory=list)
    states: List[Any] = field(default_factory=list)
    #: positions of pending (waiting, non-dead) operations: the stable
    #: boundary for row trimming is their minimum
    pending: Set[int] = field(default_factory=set)
    #: violation messages of illegal rows already trimmed
    frozen: List[str] = field(default_factory=list)
    # conflict frontier: bitsets over T0-group ranks of retired tops
    front_any: int = 0
    front_writer: int = 0
    #: generic specs: operation class -> tops that evicted it
    front: Dict[int, int] = field(default_factory=dict)
    front_ro: Set[int] = field(default_factory=set)

    def illegal(self, row: _Op) -> str:
        return f"object {self.name}: operation of {row.name} is illegal"


@dataclass(eq=False, slots=True)
class _Op:
    """One access's REQUEST_COMMIT, waiting for or holding visibility."""

    position: int
    #: dense ancestor chain (ids at depth 1..depth); the access is last
    chain: Tuple[int, ...]
    name: TransactionName
    op: Any
    value: Any
    obj: _Object
    #: dense operation-class id in the shared ConflictCache interner
    cls: int
    read_only: bool
    #: uncommitted ancestors (excluding T0)
    pending: Set[int]
    dead: bool = False
    visible: bool = False


@dataclass(eq=False, slots=True)
class _Watch:
    """A parent whose children's precedes edges wait for its visibility."""

    dense: int
    pending: Set[int]
    dead: bool = False
    visible: bool = False


@dataclass(eq=False, slots=True)
class _Subtree:
    """Bookkeeping for one top-level transaction's subtree.

    Grouping tracked operations and parent watches by the child of
    ``T0`` they live under makes aborts O(subtree) instead of O(history)
    and gives prefix compaction its unit of eviction.
    """

    #: position -> tracked operation (live accesses of this subtree)
    ops: Dict[int, _Op] = field(default_factory=dict)
    #: parent id -> watch (every non-root parent touched in here)
    parents: Dict[int, _Watch] = field(default_factory=dict)
    #: operations + parent watches still waiting for an ancestor commit
    unresolved: int = 0


@dataclass(eq=False, slots=True)
class _Group:
    """One sibling group's edges and their topological order, over member
    ranks (a member's index among its siblings).

    ``preds[t]`` holds member ``t``'s predecessor bitsets, one per edge
    kind: bit ``s`` set records the edge ``s -> t``.  They are the
    group's only edge relation.  ``order`` lists the placed members (the
    endpoints of ordered edges) in a topological order, and
    ``position[m]`` is member ``m``'s index in it, or -1 while unplaced.
    Until a cycle latches, every recorded edge runs forward in the order.
    """

    preds: Dict[int, List[int]] = field(default_factory=dict)
    position: List[int] = field(default_factory=list)
    order: List[int] = field(default_factory=list)
    #: edges the last :meth:`insert` ordered, a cycle's closing edge
    #: included, and the members it reordered
    inserted: int = 0
    affected: int = 0

    def record(self, sources: int, target: int, kind: int) -> int:
        """Record edges of ``kind`` from the members set in ``sources``
        into ``target``; return the bitset of those that are new (an
        existing edge gains the label at most)."""
        preds = self.preds.get(target)
        if preds is None:
            preds = self.preds[target] = [0, 0]
        new = sources & ~(preds[0] | preds[1])
        preds[kind] |= sources
        return new

    def insert(self, sources: int, target: int) -> Optional[List[int]]:
        """Order recorded edges from the members set in ``sources`` into
        ``target``, source by source in rank order; stop at, and return,
        the first cycle one closes, as ``[source, target, ..., source]``.

        An unplaced target has no edges yet, so it is placed after every
        source and the whole batch needs no search."""
        position = self.position
        size = max(sources.bit_length(), target + 1)
        if size > len(position):
            position.extend([-1] * (size - len(position)))
        self.inserted = self.affected = 0
        lower = position[target]
        if lower < 0:
            self.inserted = sources.bit_count()
            self._place(sources)
            self._place(1 << target)
            return None
        while sources:
            low = sources & -sources
            source = low.bit_length() - 1
            sources ^= low
            self.inserted += 1
            if position[source] < 0:
                self._place(low)
            upper = position[source]
            if upper > lower:
                cycle = self._repair(source, target, lower, upper)
                if cycle is not None:
                    return cycle
                lower = position[target]
        return None

    def _place(self, members: int) -> None:
        """Append the unplaced members set in ``members`` to the order,
        in rank order."""
        position, order = self.position, self.order
        while members:
            low = members & -members
            member = low.bit_length() - 1
            if position[member] < 0:
                position[member] = len(order)
                order.append(member)
            members ^= low

    def _repair(
        self, source: int, target: int, lower: int, upper: int
    ) -> Optional[List[int]]:
        """Pearce–Kelly's repair for ``source -> target`` against the order:
        scan the positions between the two for the members ``target``
        reaches (forward) and those that reach ``source`` (backward), then
        give the backward members, then the forward ones, the positions
        both sets held.  A forward member with an edge into ``source``
        closes a cycle instead, and nothing moves."""
        order, preds = self.order, self.preds
        reached = 1 << target
        forward = [target]
        for at in range(lower + 1, upper):
            member = order[at]
            bits = preds.get(member)
            if bits is not None and (bits[0] | bits[1]) & reached:
                reached |= 1 << member
                forward.append(member)
        bits = preds.get(source)
        if bits is not None and (bits[0] | bits[1]) & reached:
            # walk back from source through forward predecessors, which
            # sit at ever smaller positions, down to target
            path = [source]
            member = source
            while member != target:
                bits = preds[member]
                common = (bits[0] | bits[1]) & reached
                member = (common & -common).bit_length() - 1
                path.append(member)
            return [source, *reversed(path)]
        into = 0 if bits is None else bits[0] | bits[1]
        backward = [source]
        for at in range(upper - 1, lower, -1):
            member = order[at]
            if into >> member & 1:
                backward.append(member)
                bits = preds.get(member)
                if bits is not None:
                    into |= bits[0] | bits[1]
        backward.reverse()
        moved = backward + forward
        self.affected += len(moved)
        position = self.position
        for member, at in zip(moved, sorted(position[member] for member in moved)):
            position[member] = at
            order[at] = member
        return None


class OnlineCertifier:
    """Feed serial actions; read back the Theorem 8/19 verdict anytime.

    ``tracer`` (optional) opens an ``online.feed`` span per consumed
    action and an ``online.revalidate`` span around each late-commit
    visibility insertion's suffix re-evaluation — the two hot paths a
    streaming deployment needs to watch.  ``metrics`` (optional) counts
    fed actions, visible insertions, revalidated suffix operations,
    conflict/precedes edges, the Pearce–Kelly work and the cycle latch.
    Both default to off with a single ``None`` check of overhead per
    call.

    ``flight`` (optional) attaches a
    :class:`repro.obs.flight.FlightRecorder`: every consumed serial
    action is appended to its bounded ring (one deque append), and when
    the verdict degrades — the cycle latches, or a re-validation flips
    a previously-legal operation to illegal — the recorder dumps the
    window, the cycle witness and the metrics snapshot as a post-mortem
    JSONL record.  Like the other hooks it defaults to off at a single
    ``None`` check.

    ``compaction`` enables the bounded-memory mode described in the
    module docstring: every ``compaction_interval`` consumed actions a
    sweep retires quiescent top-level subtrees, folding their
    operations into per-object summaries and a conflict frontier.  The
    default keeps the uncompacted engine as the A/B baseline; verdicts
    are identical either way on well-formed streams.  Sweep work is
    surfaced through the ``online.compaction.*`` metrics and the
    :meth:`compaction_stats` / :meth:`live_tracked_ops` introspectors.
    """

    def __init__(
        self,
        system_type: SystemType,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        compaction: bool = False,
        compaction_interval: int = 64,
        flight: Optional[FlightRecorder] = None,
        session: str = "",
        site: str = "",
    ) -> None:
        if compaction_interval < 1:
            raise ValueError("compaction_interval must be >= 1")
        self.system_type = system_type
        self.tracer = tracer
        self.metrics = metrics
        self.flight = flight
        self.session = session
        #: Originating site label for post-mortems ("" outside
        #: repro.distributed); recorded in every flight-dump context.
        self.site = site
        self.compaction = compaction
        self.compaction_interval = compaction_interval
        self.conflict_cache = ConflictCache()
        # the id space: interning only, no events are appended
        self._store = ColumnarHistory()
        self._parent = self._store.txn_parent
        self._status = bytearray()
        #: rank of each id within its sibling group (its parent's children
        #: in interning order), and each parent's children by rank
        self._rank: List[int] = []
        self._members: Dict[int, List[int]] = {}
        self._register_ids()
        self._position = 0
        self._objects: Dict[ObjectName, _Object] = {}
        for obj in system_type.object_names():
            spec = system_type.spec(obj)
            self._objects[obj] = _Object(
                obj,
                spec,
                self.conflict_cache.spec_id(spec),
                bool(getattr(spec, "conflicts_iff_writer", False)),
                spec.initial,
            )
        # ops awaiting visibility: uncommitted ancestor -> position -> op
        self._waiting: Dict[int, Dict[int, _Op]] = {}
        # per-top-level-subtree bookkeeping (aborts, compaction)
        self._subtrees: Dict[int, _Subtree] = {}
        # precedes bookkeeping: parent -> child -> first request/report
        # position, plus each touched parent's visibility watch
        self._requests: Dict[int, Dict[int, int]] = {}
        self._reports: Dict[int, Dict[int, int]] = {}
        #: parent -> ranks of its children with a recorded report
        self._reported: Dict[int, int] = {}
        self._watches: Dict[int, _Watch] = {}
        self._waiting_parents: Dict[int, Dict[int, _Watch]] = {}
        self._groups: Dict[int, _Group] = {}
        self._cycle: Optional[Tuple[TransactionName, List[TransactionName]]] = None
        self._last_sweep = 0
        #: tracked operations retained: visible rows plus the waiting or
        #: dead operations in subtree records
        self._live_ops = 0
        self._stats = dict.fromkeys(
            ("sweeps", "evicted_subtrees", "evicted_ops", "evicted_rows"), 0
        )

    # -- public API ---------------------------------------------------------

    def feed(self, action: Action) -> None:
        """Consume one action (non-serial actions are ignored)."""
        kind = action_kind(action)
        if kind is None:
            return
        if self.metrics is not None:
            self.metrics.inc("online.actions")
        if self.flight is not None:
            self.flight.record(self._position, action)
        if self.tracer is not None:
            with self.tracer.span("online.feed", kind=type(action).__name__):
                self._consume(kind, action)
        else:
            self._consume(kind, action)
        if (
            self.compaction
            and self._position - self._last_sweep >= self.compaction_interval
        ):
            if self.tracer is not None:
                with self.tracer.span("online.compaction.sweep"):
                    self._compact()
            else:
                self._compact()

    def _consume(self, kind: int, action: Action) -> None:
        position = self._position
        self._position = position + 1
        dense = self._store.intern(action.transaction)
        if dense >= len(self._status):
            self._register_ids()
        if dense:
            self._subtree(self._store.chain(dense)[0])
        if kind == K_REQUEST_CREATE:
            parent = self._parent_of(dense)
            self._requests.setdefault(parent, {}).setdefault(dense, position)
            if self._touch_parent(parent):
                self._add_precedes_for_new_request(parent, dense)
        elif kind == K_REQUEST_COMMIT:
            if self.system_type.is_access(action.transaction):
                self._track_operation(dense, action, position)
        elif kind == K_COMMIT:
            self._on_commit(dense)
        elif kind == K_ABORT:
            self._on_abort(dense)
        elif kind >= K_REPORT_COMMIT:
            parent = self._parent_of(dense)
            self._reports.setdefault(parent, {}).setdefault(dense, position)
            self._reported[parent] = self._reported.get(parent, 0) | 1 << self._rank[dense]
            self._touch_parent(parent)

    def verdict(self) -> OnlineVerdict:
        """The Theorem 8/19 judgement of everything fed so far."""
        violations: List[str] = []
        for state in self._objects.values():
            # trimmed rows precede every retained or future row, so the
            # frozen messages come first: the uncompacted engine's tuple
            violations.extend(state.frozen)
            if False in state.legal:
                violations.extend(
                    state.illegal(row)
                    for row, ok in zip(state.rows, state.legal)
                    if not ok
                )
        certified = not violations and self._cycle is None
        return OnlineVerdict(certified, tuple(violations), self._cycle)

    def feed_all(self, behavior: Sequence[Action]) -> OnlineVerdict:
        """Feed a whole behavior and return the resulting verdict."""
        for action in behavior:
            self.feed(action)
        return self.verdict()

    @property
    def graph(self) -> SerializationGraph:
        """The serialization graph accumulated so far, built on demand
        from the edge stores (the edge closing a latched cycle included)."""
        graph = SerializationGraph()
        names = self._store.txn_names
        for parent, group in self._groups.items():
            members = self._members[parent]
            for target, kinds in group.preds.items():
                for kind, bits in enumerate(kinds):
                    while bits:
                        low = bits & -bits
                        source = members[low.bit_length() - 1]
                        graph.add_edge(
                            SiblingEdge(
                                names[source], names[members[target]], _EDGE_LABELS[kind]
                            )
                        )
                        bits ^= low
        return graph

    def live_tracked_ops(self) -> int:
        """Raw tracked operations currently retained (the memory driver).

        Counts every distinct ``_Op`` still held: visible rows in the
        per-object sequences plus the not-yet-visible (waiting or dead)
        operations in the subtree records.  The count is kept as
        operations are tracked, trimmed and evicted, so reading it is
        O(1).  With ``compaction=True`` it stays proportional to the
        live window of the stream; without it, it grows with history
        length.
        """
        return self._live_ops

    def compaction_stats(self) -> Dict[str, int]:
        """Sweep/eviction totals (also surfaced as ``online.compaction.*``).

        ``frontier_entries`` counts the (object, retired top-level
        transaction) pairs the conflict frontier holds.
        """
        frontier = 0
        for state in self._objects.values():
            tops = state.front_any
            for bits in state.front.values():
                tops |= bits
            frontier += tops.bit_count()
        return {
            **self._stats,
            "live_tracked_ops": self.live_tracked_ops(),
            "frontier_entries": frontier,
        }

    # -- ids and status ------------------------------------------------------

    def _register_ids(self) -> None:
        """Give every newly interned id a status flag and a group rank."""
        parent = self._parent
        for dense in range(len(self._status), len(parent)):
            self._status.append(0)
            members = self._members.setdefault(parent[dense], [])
            self._rank.append(len(members))
            members.append(dense)

    def _parent_of(self, dense: int) -> int:
        if not dense:
            raise ValueError("T0 has no parent")
        return self._parent[dense]

    def _uncommitted(self, chain: Tuple[int, ...]) -> Set[int]:
        status = self._status
        return {ancestor for ancestor in chain if not status[ancestor] & _COMMITTED}

    def _dead(self, chain: Tuple[int, ...]) -> bool:
        status = self._status
        return bool(status[0] & _ABORTED) or any(
            status[ancestor] & _ABORTED for ancestor in chain
        )

    def _subtree(self, top: int) -> _Subtree:
        subtree = self._subtrees.get(top)
        if subtree is None:
            subtree = self._subtrees[top] = _Subtree()
        return subtree

    # -- visibility machinery -------------------------------------------------

    def _track_operation(self, dense: int, action: Action, position: int) -> None:
        chain = self._store.chain(dense)
        if self._dead(chain):
            return  # dead on arrival: can never become visible
        access = self.system_type.access(action.transaction)
        state = self._objects[access.obj]
        value = action.value  # type: ignore[union-attr]
        tracked = _Op(
            position,
            chain,
            action.transaction,
            access.op,
            value,
            state,
            self.conflict_cache.operation_id(access.op, value),
            spec_is_read_only(state.spec, access.op),
            self._uncommitted(chain),
        )
        subtree = self._subtree(chain[0])
        subtree.ops[position] = tracked
        self._live_ops += 1
        if not tracked.pending:
            self._make_op_visible(tracked)
            return
        subtree.unresolved += 1
        state.pending.add(position)
        for ancestor in tracked.pending:
            self._waiting.setdefault(ancestor, {})[position] = tracked

    def _touch_parent(self, parent: int) -> bool:
        """Watch ``parent`` for visibility (once); True iff it is visible."""
        watch = self._watches.get(parent)
        if watch is not None:
            return watch.visible
        chain = self._store.chain(parent)
        watch = self._watches[parent] = _Watch(parent, self._uncommitted(chain))
        if parent:
            self._subtree(chain[0]).parents[parent] = watch
        if self._dead(chain):
            watch.dead = True
            return False
        if not watch.pending:
            self._make_parent_visible(watch)
            return True
        self._subtree(chain[0]).unresolved += 1
        for ancestor in watch.pending:
            self._waiting_parents.setdefault(ancestor, {})[parent] = watch
        return False

    def _on_commit(self, dense: int) -> None:
        self._status[dense] |= _COMMITTED
        for tracked in self._waiting.pop(dense, {}).values():
            if tracked.dead or tracked.visible:
                continue
            tracked.pending.discard(dense)
            if not tracked.pending:
                self._subtree(tracked.chain[0]).unresolved -= 1
                tracked.obj.pending.discard(tracked.position)
                self._make_op_visible(tracked)
        for watch in self._waiting_parents.pop(dense, {}).values():
            if watch.dead or watch.visible:
                continue
            watch.pending.discard(dense)
            if not watch.pending:
                self._subtree(self._store.chain(watch.dense)[0]).unresolved -= 1
                self._make_parent_visible(watch)

    def _on_abort(self, dense: int) -> None:
        self._status[dense] |= _ABORTED
        if not dense:
            subtrees = list(self._subtrees.values())
        else:
            subtree = self._subtrees.get(self._store.chain(dense)[0])
            subtrees = [subtree] if subtree is not None else []
        for subtree in subtrees:
            self._kill_descendants(subtree, dense)

    def _kill_descendants(self, subtree: _Subtree, dense: int) -> None:
        """Mark the aborted transaction's waiting descendants dead and evict
        their waiting-list entries eagerly (the abort-leak fix: dead
        entries no longer linger until an unrelated ancestor commits)."""
        depth = len(self._store.chain(dense))

        def under(chain: Tuple[int, ...]) -> bool:
            return not dense or (len(chain) >= depth and chain[depth - 1] == dense)

        for tracked in subtree.ops.values():
            if tracked.visible or tracked.dead or not under(tracked.chain):
                continue
            tracked.dead = True
            subtree.unresolved -= 1
            tracked.obj.pending.discard(tracked.position)
            for ancestor in tracked.pending:
                bucket = self._waiting.get(ancestor)
                if bucket is not None:
                    bucket.pop(tracked.position, None)
                    if not bucket:
                        del self._waiting[ancestor]
        for watch in subtree.parents.values():
            if watch.visible or watch.dead:
                continue
            if not under(self._store.chain(watch.dense)):
                continue
            watch.dead = True
            subtree.unresolved -= 1
            for ancestor in watch.pending:
                watchers = self._waiting_parents.get(ancestor)
                if watchers is not None:
                    watchers.pop(watch.dense, None)
                    if not watchers:
                        del self._waiting_parents[ancestor]

    # -- graph + ARV maintenance ---------------------------------------------

    def _make_op_visible(self, tracked: _Op) -> None:
        tracked.visible = True
        state = tracked.obj
        top = tracked.chain[0]
        rank = self._rank
        # conflict edges against the compacted prefix, via the frontier:
        # evicted rows always precede this op, so the edge runs from the
        # retired top to this op's top; intra-subtree (nested) pairs are
        # skipped — provably unable to complete a new cycle
        if state.rw:
            partners = state.front_writer if tracked.read_only else state.front_any
        else:
            partners = 0
            others = ~(1 << rank[top])
            for cls, tops in state.front.items():
                if not tops & others:
                    continue
                if tracked.read_only and cls in state.front_ro:
                    continue
                if self.conflict_cache.conflicts_ids(state.spec_id, cls, tracked.cls):
                    partners |= tops
        # conflict edges against every already-visible op on the object;
        # read/read pairs commute (both ops preserve the state) and are
        # skipped before the spec or the verdict cache is consulted, and
        # read/write specs need no verdict at all.  Edges from an earlier
        # row's top into this op's top join the frontier's batch
        conflicts = None if state.rw else self.conflict_cache.conflicts_ids
        for other in state.rows:
            if tracked.read_only and other.read_only:
                continue
            first, second = (
                (other, tracked) if other.position < tracked.position else (tracked, other)
            )
            # the children of the least common ancestor; none when one
            # access is an ancestor of the other
            mine, theirs = first.chain, second.chain
            limit = min(len(mine), len(theirs))
            depth = 0
            while depth < limit and mine[depth] == theirs[depth]:
                depth += 1
            if depth == limit:
                continue
            if conflicts is not None and not conflicts(
                state.spec_id, first.cls, second.cls
            ):
                continue
            if depth or second is not tracked:
                self._add_edge(mine[depth], theirs[depth], _CONFLICT)
            else:
                partners |= 1 << rank[mine[0]]
        partners &= ~(1 << rank[top])  # a top is not its own partner
        if partners:
            self._add_edges(0, partners, rank[top], _CONFLICT)
        # insert by position and re-validate the suffix
        rows = state.rows
        index = len(rows)
        while index and rows[index - 1].position > tracked.position:
            index -= 1
        rows.insert(index, tracked)
        state.legal.insert(index, True)
        state.states.insert(index, None)
        if self.metrics is not None:
            self.metrics.inc("online.visible_insertions")
            if index < len(rows) - 1:
                # a late commit landed mid-sequence: the non-monotone case
                self.metrics.inc("online.midstream_insertions")
        if self.tracer is not None:
            with self.tracer.span(
                "online.revalidate",
                obj=str(state.name),
                suffix=len(rows) - index,
            ):
                self._revalidate(state, index)
        else:
            self._revalidate(state, index)

    def _revalidate(self, state: _Object, start: int) -> None:
        rows = state.rows
        if self.metrics is not None:
            self.metrics.inc("online.revalidated_ops", len(rows) - start)
            self.metrics.inc("online.revalidate.skipped_prefix_ops", start)
        # resume from the cached state at the insertion point: the stable
        # prefix is never replayed (per-object decomposition of the work).
        # After compaction the base of the sequence is the summarised
        # state of the evicted prefix instead of the spec's initial state.
        states = state.states
        current: Any = states[start - 1] if start else state.base
        legal = state.legal
        apply = state.spec.apply
        newly_illegal: List[TransactionName] = []
        for index in range(start, len(rows)):
            row = rows[index]
            current, expected = apply(current, row.op)
            states[index] = current
            was_legal = legal[index]
            legal[index] = expected == row.value
            if was_legal and not legal[index] and self.flight is not None:
                newly_illegal.append(row.name)
        if newly_illegal and self.flight is not None:
            self.flight.dump(
                "arv",
                session=self.session,
                metrics_snapshot=(
                    self.metrics.snapshot() if self.metrics is not None else None
                ),
                context={
                    "object": str(state.name),
                    "illegal": [str(name) for name in newly_illegal],
                    "site": self.site,
                },
            )

    def _make_parent_visible(self, watch: _Watch) -> None:
        watch.visible = True
        reports = self._reports.get(watch.dense)
        requests = self._requests.get(watch.dense)
        if not reports or not requests:
            return
        for reported, report_pos in reports.items():
            for requested, request_pos in requests.items():
                if reported != requested and report_pos < request_pos:
                    self._add_edge(reported, requested, _PRECEDES)

    def _add_precedes_for_new_request(self, parent: int, requested: int) -> None:
        # every recorded report came before this request
        rank = self._rank[requested]
        reported = self._reported.get(parent, 0) & ~(1 << rank)
        if reported:
            self._add_edges(parent, reported, rank, _PRECEDES)

    def _add_edge(self, source: int, target: int, kind: int) -> None:
        rank = self._rank
        self._add_edges(self._parent[source], 1 << rank[source], rank[target], kind)

    def _add_edges(self, parent: int, sources: int, target: int, kind: int) -> None:
        """Edges of ``kind`` into member ``target`` of ``parent``'s group
        from the members set in ``sources``; counted one per new edge."""
        group = self._groups.get(parent)
        if group is None:
            group = self._groups[parent] = _Group()
        new = group.record(sources, target, kind)
        if not new:
            return
        if self.metrics is not None:
            self.metrics.inc(
                "online.edges.conflict" if kind == _CONFLICT else "online.edges.precedes",
                new.bit_count(),
            )
        if self._cycle is not None:
            return  # the verdict is monotone: once latched, always cyclic
        cycle = group.insert(new, target)
        if self.metrics is not None:
            self.metrics.inc("online.incremental.edge_inserts", group.inserted)
            self.metrics.inc("online.incremental.affected_nodes", group.affected)
        if cycle is not None:
            self._latch_cycle(parent, cycle)

    def _latch_cycle(self, parent: int, cycle: List[int]) -> None:
        names = self._store.txn_names
        members = self._members[parent]
        self._cycle = (names[parent], [names[members[rank]] for rank in cycle])
        if self.metrics is not None:
            self.metrics.inc("online.cycle_latched")
        if self.flight is not None:
            self.flight.dump(
                "cycle",
                session=self.session,
                cycle=self._cycle,
                metrics_snapshot=(
                    self.metrics.snapshot() if self.metrics is not None else None
                ),
                context={"site": self.site},
            )

    # -- prefix compaction ----------------------------------------------------

    def _compact(self) -> None:
        """One compaction sweep: trim stable row prefixes, retire records."""
        self._last_sweep = self._position
        self._stats["sweeps"] += 1
        horizon = self._position  # every row position is < horizon
        for state in self._objects.values():
            if state.rows:
                self._trim_rows(state, min(state.pending, default=horizon))
        evictable = {
            top
            for top, subtree in self._subtrees.items()
            if not subtree.unresolved
            and all(op.dead or op.visible for op in subtree.ops.values())
        }
        if evictable:
            self._evict_subtrees(evictable)
        if self.metrics is not None:
            self.metrics.inc("online.compaction.sweeps")
            if evictable:
                self.metrics.inc("online.compaction.evicted_subtrees", len(evictable))
            self.metrics.set_gauge(
                "online.compaction.live_tracked_ops", self.live_tracked_ops()
            )

    def _trim_rows(self, state: _Object, boundary: int) -> None:
        """Fold the object's *stable prefix* — the leading rows positioned
        before ``boundary``, every still-pending operation on the object —
        into its summary: its frontier, its frozen violations and the
        base state (see the module docstring).  Rows trim independently
        of their subtree records, so a long-running transaction's
        settled prefix compacts while the transaction stays open."""
        rows = state.rows
        cut = 0
        while cut < len(rows) and rows[cut].position < boundary:
            cut += 1
        if not cut:
            return
        legal = state.legal
        for i in range(cut):
            row = rows[i]
            top = row.chain[0]
            bit = 1 << self._rank[top]
            if state.rw:
                state.front_any |= bit
                if not row.read_only:
                    state.front_writer |= bit
            else:
                state.front[row.cls] = state.front.get(row.cls, 0) | bit
                if row.read_only:
                    state.front_ro.add(row.cls)
            if not legal[i]:
                state.frozen.append(state.illegal(row))
                if self.metrics is not None:
                    self.metrics.inc("online.compaction.frozen_violations")
            subtree = self._subtrees.get(top)
            if subtree is not None:
                subtree.ops.pop(row.position, None)
        self._stats["evicted_rows"] += cut
        self._live_ops -= cut
        # rows are position-sorted, so the state after the last trimmed
        # row is absolute over the whole evicted prefix
        state.base = state.states[cut - 1]
        del rows[:cut]
        del legal[:cut]
        del state.states[:cut]
        if self.metrics is not None:
            self.metrics.inc("online.compaction.evicted_rows", cut)

    def _evict_subtrees(self, evictable: Set[int]) -> None:
        """Drop the records of quiescent top-level subtrees: their op
        trackers, parent watches, nested report/request buckets and
        nested sibling groups, whose members' positions go with them (a
        later edge there starts a fresh group).  Visible rows retire
        separately (see :meth:`_trim_rows`); root-level state stays,
        keeping late events that reference a retired subtree exact."""
        for top in evictable:
            subtree = self._subtrees.pop(top)
            self._stats["evicted_subtrees"] += 1
            self._stats["evicted_ops"] += len(subtree.ops)
            # quiescent: every operation not in a row is dead
            self._live_ops -= sum(not op.visible for op in subtree.ops.values())
            if self.metrics is not None:
                self.metrics.inc("online.compaction.evicted_ops", len(subtree.ops))
            for parent in subtree.parents:
                self._requests.pop(parent, None)
                self._reports.pop(parent, None)
                self._reported.pop(parent, None)
                self._watches.pop(parent, None)
        chain = self._store.chain
        for parent in [p for p in self._groups if p and chain(p)[0] in evictable]:
            del self._groups[parent]
