"""Serial correctness: the Theorem 8/19 certifier and a constructive witness.

The paper's main theorems say: if a finite simple behavior ``beta`` has
appropriate return values and ``SG(beta)`` is acyclic, then ``beta`` is
serially correct for ``T0`` — there exists a *serial* behavior ``gamma``
with ``gamma | T0 == beta | T0``.

:func:`certify` checks the two hypotheses.  Because the theorem is
existential, we go one step further and make it constructive:
:func:`build_witness` follows the proof — topologically sort the
serialization graph into a sibling order ``R``, then replay the visible
part of ``beta`` as a depth-first serial execution whose siblings run in
``R`` order — and :func:`validate_serial_behavior` replays the produced
``gamma`` against the serial scheduler's rules and every object's serial
specification.  A successful certificate therefore carries an actual,
machine-checked serial behavior, with ``gamma | T == beta | T`` for every
transaction visible to ``T0`` (a stronger property than the theorem
demands for ``T0`` alone); a witness that fails any of these checks
un-certifies the behavior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from .actions import (
    Abort,
    Action,
    Behavior,
    Commit,
    Create,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
    is_serial_action,
    transaction_of,
)
from .columnar import (
    K_ABORT,
    K_COMMIT,
    K_CREATE,
    K_REPORT_ABORT,
    K_REPORT_COMMIT,
    K_REQUEST_COMMIT,
    K_REQUEST_CREATE,
    ColumnarHistory,
    ColumnarSerializationGraph,
    build_columnar_graph,
    columnar_arv_violations,
)
from .events import StatusIndex, project_transaction
from .names import ROOT, ObjectName, SystemType, TransactionName
from .operations import (
    is_serial_object_well_formed,
    operation_payloads,
    operations_of_object,
)
from .return_values import ReturnValueViolation
from .serialization_graph import SerializationGraph
from .sibling_order import SiblingOrder

__all__ = [
    "Certificate",
    "certify",
    "build_witness",
    "WitnessError",
    "validate_serial_behavior",
    "object_replay_problems",
    "witness_projection_problems",
]


class WitnessError(RuntimeError):
    """Raised when the constructive witness cannot be built or validated.

    Under the hypotheses of Theorem 8/19 this should never happen; it
    indicates either a malformed input behavior or a bug.
    """


@dataclass
class Certificate:
    """The result of running the Theorem 8/19 check on a behavior."""

    certified: bool
    arv_violations: List[ReturnValueViolation]
    cycle: Optional[Tuple[TransactionName, List[TransactionName]]]
    graph: SerializationGraph
    order: Optional[SiblingOrder] = None
    witness: Optional[Behavior] = None
    witness_problems: List[str] = field(default_factory=list)
    input_problems: List[str] = field(default_factory=list)

    @property
    def has_appropriate_return_values(self) -> bool:
        return not self.arv_violations

    @property
    def graph_is_acyclic(self) -> bool:
        return self.cycle is None

    def explain(self) -> str:
        """A human-readable account of the verdict."""
        if self.certified:
            lines = ["CERTIFIED serially correct for T0 (Theorem 8/19)."]
            if self.witness is not None:
                lines.append(f"Witness serial behavior has {len(self.witness)} events.")
            return "\n".join(lines)
        lines = ["NOT certified (the condition is sufficient, not necessary):"]
        for problem in self.input_problems:
            lines.append(f"  malformed input: {problem}")
        for violation in self.arv_violations:
            lines.append(f"  return values: {violation}")
        if self.cycle is not None:
            parent, nodes = self.cycle
            path = " -> ".join(str(n) for n in nodes)
            lines.append(f"  SG cycle under {parent}: {path}")
        for problem in self.witness_problems:
            lines.append(f"  witness: {problem}")
        return "\n".join(lines)


def certify(
    behavior: Iterable[Action],
    system_type: SystemType,
    construct_witness: bool = True,
    validate_input: bool = False,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Certificate:
    """Apply Theorem 8/19 to (the serial projection of) ``behavior``.

    Checks appropriate return values and acyclicity of ``SG(serial(beta))``.
    When both hold and ``construct_witness`` is set, also runs the witness
    phase: sibling order, witness build, serial replay and the
    ``gamma | T == beta | T`` check for every transaction visible to
    ``T0``.  Any witness problem is listed in ``witness_problems`` and
    makes the certificate non-certified (fail closed: on a well-formed
    log the theorem says it never happens, so a problem means the input
    is malformed).

    With ``validate_input``, first checks the simple-database constraints
    the theorems presuppose (Section 2.3.1); violations are reported in
    ``input_problems`` and make the certificate non-certified — a
    malformed log deserves a diagnosis, not a verdict.

    ``behavior`` may be any iterable: it streams once into a
    :class:`repro.core.columnar.ColumnarHistory` (dense ids, int columns,
    flag-byte visibility), which answers the ARV check, graph
    construction, the cycle search and the witness phase's sibling order
    and build; no :class:`repro.core.history.HistoryIndex` is built and
    the graph's object digraphs are never materialised.  The serial
    actions are kept only when the witness or input validation needs
    them.  The per-phase functions of the paper's definitions
    (:func:`check_appropriate_return_values`,
    :func:`build_serialization_graph`, :func:`build_witness`, ...) return
    the same answers on the object representation.

    ``tracer`` wraps the run in a ``certify`` span (tag: ``events``, the
    actions consumed) whose children cover the phases (projection, input
    validation, ARV check, graph build, cycle search, witness — the last
    split into order, build, validate and check); ``metrics`` gains the
    ``history.columnar.*`` store counters, phase gauges/counters and
    rejections counted by cause.  Both default to no-ops with ~zero
    overhead.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    keep = construct_witness or validate_input
    store = ColumnarHistory(system_type, metrics=metrics)
    serial: List[Action] = []
    with tracer.span("certify") as span:
        with tracer.span("certify.project"):
            events = 0
            for events, action in enumerate(behavior, 1):
                if store.append(action) and keep:
                    serial.append(action)
        span.set_tag("events", events)
        store.record_build_metrics()
        if validate_input:
            # imported lazily: the simple database lives one layer above core
            from ..serial.simple_db import check_simple_behavior

            with tracer.span("certify.validate_input"):
                input_problems = check_simple_behavior(tuple(serial), system_type)
            if input_problems:
                if metrics is not None:
                    metrics.inc("certify.runs")
                    metrics.inc("certify.rejected")
                    metrics.inc("certify.rejected.malformed_input")
                return Certificate(
                    False,
                    [],
                    None,
                    SerializationGraph(),
                    input_problems=input_problems,
                )
        with tracer.span("certify.arv"):
            arv_violations = columnar_arv_violations(store)
        with tracer.span("certify.build_graph"):
            graph = build_columnar_graph(store, tracer=tracer, metrics=metrics)
        with tracer.span("certify.find_cycle"):
            cycle = graph.find_cycle()
        certificate = Certificate(
            not arv_violations and cycle is None, arv_violations, cycle, graph
        )
        if certificate.certified and construct_witness:
            _witness_phase(
                certificate, graph, store, tuple(serial), system_type, tracer
            )
        _count_verdict(certificate, metrics)
    return certificate


# ---------------------------------------------------------------------------
# Constructive witness
# ---------------------------------------------------------------------------


def _visible_transactions(index: StatusIndex) -> Set[TransactionName]:
    """Transactions visible to T0 among those mentioned in the behavior."""
    mentioned = index.create_requested | index.created | {ROOT}
    return {t for t in mentioned if index.is_visible(t, ROOT)}


def build_witness(
    serial: Sequence[Action],
    system_type: SystemType,
    order: SiblingOrder,
    index: Optional[StatusIndex] = None,
) -> Behavior:
    """Build the serial behavior ``gamma`` promised by Theorem 8/19.

    Follows the proof: runs the transactions visible to ``T0`` as a
    depth-first serial execution, executing each sibling group in the
    topological order ``order``, while reproducing each visible
    transaction's own action sequence (``beta | T``) verbatim.  Aborted
    children are aborted before creation (the only abort the serial
    scheduler permits); non-visible, never-completed children are
    requested but never scheduled.
    """
    index = index if index is not None else StatusIndex(serial)
    visible = _visible_transactions(index)
    builder = _WitnessBuilder(serial, system_type, order, index, visible)
    builder.emit_transaction(ROOT)
    return tuple(builder.output)


class _WitnessBuilder:
    def __init__(
        self,
        serial: Sequence[Action],
        system_type: SystemType,
        order: SiblingOrder,
        index: StatusIndex,
        visible: Set[TransactionName],
    ) -> None:
        self.serial = tuple(serial)
        self.system_type = system_type
        self.order = order
        self.index = index
        self.visible = visible
        self.output: List[Action] = []
        self._local_cache: Dict[TransactionName, Behavior] = {}

    def local_sequence(self, transaction: TransactionName) -> Behavior:
        if transaction not in self._local_cache:
            self._local_cache[transaction] = project_transaction(
                self.serial, transaction, self.index
            )
        return self._local_cache[transaction]

    def emit_transaction(self, transaction: TransactionName) -> None:
        """Emit the serial execution of ``transaction``'s subtree."""
        local = self.local_sequence(transaction)
        requested: List[TransactionName] = []
        ran: Set[TransactionName] = set()
        aborted_emitted: Set[TransactionName] = set()

        def run_child(child: TransactionName) -> None:
            if child in ran:
                return
            if child not in requested:
                raise WitnessError(
                    f"child {child} must run before its REQUEST_CREATE was emitted"
                )
            ran.add(child)
            self.emit_transaction(child)
            self.output.append(Commit(child))

        def run_up_to(target: TransactionName) -> None:
            """Run all pending visible R-predecessors of ``target``, then it."""
            pending = [
                c
                for c in requested
                if c in self.visible and c not in ran
            ]
            for child in self.order.sorted_children(transaction, pending):
                if child == target:
                    run_child(child)
                    return
                if self.order.holds(child, target):
                    run_child(child)
            # ``target`` may not have been pending (already ran) — ensure it ran.
            if target not in ran:
                run_child(target)

        for action in local:
            if isinstance(action, Create):
                self.output.append(action)
            elif isinstance(action, RequestCreate):
                requested.append(action.transaction)
                self.output.append(action)
            elif isinstance(action, ReportCommit):
                child = action.transaction
                if child not in self.visible:
                    raise WitnessError(
                        f"report of commit for non-visible child {child}"
                    )
                run_up_to(child)
                self.output.append(action)
            elif isinstance(action, ReportAbort):
                child = action.transaction
                if child not in aborted_emitted:
                    aborted_emitted.add(child)
                    self.output.append(Abort(child))
                self.output.append(action)
            elif isinstance(action, RequestCommit):
                pending = [
                    c for c in requested if c in self.visible and c not in ran
                ]
                for child in self.order.sorted_children(transaction, pending):
                    run_child(child)
                self.output.append(action)
            else:
                raise WitnessError(
                    f"unexpected action {action} in local sequence of {transaction}"
                )

        # Visible children whose reports never arrived (possible only at T0,
        # since any committed parent must have received all reports first)
        # still have globally visible effects: run them now, in order.
        leftovers = [c for c in requested if c in self.visible and c not in ran]
        for child in self.order.sorted_children(transaction, leftovers):
            run_child(child)


# ---------------------------------------------------------------------------
# The witness phase
# ---------------------------------------------------------------------------


def _witness_phase(
    certificate: Certificate,
    graph: ColumnarSerializationGraph,
    store: ColumnarHistory,
    serial: Behavior,
    system_type: SystemType,
    tracer: Tracer,
) -> None:
    """Order, build, validate and check the witness of ``certificate``.

    Topologically sorts the certificate's graph into a sibling order,
    builds ``gamma`` over it, replays ``gamma`` against the serial
    scheduler and every object's specification, and checks
    ``gamma | T == beta | T`` for every ``T`` visible to ``T0``.  The
    order, the witness and its problems land on the certificate, which
    fails closed: any witness problem un-certifies it.

    The order and the build run on the dense ids of ``store`` and of
    ``graph`` (the certificate's): a Kahn sort per group of the dense
    graph, then :class:`_DenseWitnessBuilder` over per-transaction event
    positions.  They return what :meth:`SerializationGraph.to_sibling_order`
    and :func:`build_witness` return on the object representation, and
    no :class:`HistoryIndex` is built.  The two checks of ``gamma`` do
    not trust the builder: the replay is :func:`validate_serial_behavior`,
    and the projection check groups ``gamma`` by ``transaction(pi)`` in
    one pass and reads each ``beta | T`` off the store's event positions,
    reporting problems in transaction-name order.  Every step is linear
    in the log, up to a log factor per sibling for the builder's heaps.
    """
    with tracer.span("certify.witness"):
        with tracer.span("certify.witness.order"):
            certificate.order = graph.to_sibling_order()
        try:
            with tracer.span("certify.witness.build"):
                builder = _DenseWitnessBuilder(
                    store, serial, graph.sibling_order_ids()
                )
                builder.emit_transaction(0)
                witness = tuple(builder.output)
        except WitnessError as exc:
            certificate.witness_problems = [str(exc)]
        else:
            certificate.witness = witness
            with tracer.span("certify.witness.validate"):
                problems = validate_serial_behavior(witness, system_type)
            if not problems:
                with tracer.span("certify.witness.check"):
                    problems = witness_projection_problems(
                        witness, builder.visible_names(), builder.local_sequence
                    )
            certificate.witness_problems = problems
        if certificate.witness_problems:
            certificate.certified = False


class _DenseWitnessBuilder:
    """:class:`_WitnessBuilder` on a :class:`ColumnarHistory`'s dense ids.

    ``serial`` holds the store's events in order (event position ``i``
    is ``serial[i]``) and ``order_ids`` is the sibling order over dense
    ids.  One pass over the event columns lists each transaction's
    ``beta | T`` positions and the transactions mentioned by a
    REQUEST_CREATE or a CREATE.  Each parent keeps its pending visible
    children in a heap keyed by rank in the parent's group order, so a
    report runs the pending lower-ranked siblings first in O(log c)
    each; children the order does not rank come after ranked ones, in
    name order.  Output and :class:`WitnessError` messages are those of
    :class:`_WitnessBuilder`.
    """

    def __init__(
        self,
        store: ColumnarHistory,
        serial: Behavior,
        order_ids: Dict[int, List[int]],
    ) -> None:
        self.store = store
        self.serial = serial
        self.names = store.txn_names
        count = len(self.names)
        parent = store.txn_parent
        local: Dict[int, List[int]] = {}
        mentioned = bytearray(count)
        mentioned[0] = 1
        for position, (kind, dense) in enumerate(zip(store.ev_kind, store.ev_txn)):
            if kind == K_CREATE:
                owner = dense
                mentioned[dense] = 1
            elif kind == K_REQUEST_COMMIT:
                owner = dense
            elif kind == K_COMMIT or kind == K_ABORT:
                continue
            else:  # REQUEST_CREATE and the reports belong to the parent
                owner = parent[dense]
                if kind == K_REQUEST_CREATE:
                    mentioned[dense] = 1
            positions = local.get(owner)
            if positions is None:
                local[owner] = [position]
            else:
                positions.append(position)
        self.local = local
        #: visible to T0 among the mentioned transactions (with T0)
        self.visible = bytes(
            flag & seen for flag, seen in zip(store.visible_flags(), mentioned)
        )
        #: heap key per id: rank in its group, else after every rank
        name_rank = store.name_rank()
        self.key = [count + rank for rank in name_rank]
        for ids in order_ids.values():
            for rank, dense in enumerate(ids):
                self.key[dense] = rank
        self.output: List[Action] = []

    def local_sequence(self, transaction: TransactionName) -> Behavior:
        """``beta | T`` read off the event positions."""
        dense = self.store.txn_id_of(transaction)
        positions = self.local.get(dense, ()) if dense is not None else ()
        serial = self.serial
        return tuple(serial[position] for position in positions)

    def visible_names(self) -> List[TransactionName]:
        """The transactions visible to ``T0``, in name order."""
        visible = self.visible
        rank = self.store.name_rank()
        ids = [dense for dense in range(len(visible)) if visible[dense]]
        ids.sort(key=rank.__getitem__)
        return [self.names[dense] for dense in ids]

    def emit_transaction(self, transaction: int) -> None:
        """Emit the serial execution of ``transaction``'s subtree."""
        names = self.names
        serial = self.serial
        kinds = self.store.ev_kind
        txns = self.store.ev_txn
        visible = self.visible
        key = self.key
        output = self.output
        requested: Set[int] = set()
        ran: Set[int] = set()
        aborted_emitted: Set[int] = set()
        pending: List[Tuple[int, int]] = []  # (key, child), visible only

        def run_child(child: int) -> None:
            if child in ran:
                return
            if child not in requested:
                raise WitnessError(
                    f"child {names[child]} must run before its REQUEST_CREATE "
                    f"was emitted"
                )
            ran.add(child)
            self.emit_transaction(child)
            output.append(Commit(names[child]))

        for position in self.local.get(transaction, ()):
            kind = kinds[position]
            if kind == K_REQUEST_CREATE:
                child = txns[position]
                if child not in requested:
                    requested.add(child)
                    if visible[child]:
                        heappush(pending, (key[child], child))
            elif kind == K_REPORT_COMMIT:
                child = txns[position]
                if not visible[child]:
                    raise WitnessError(
                        f"report of commit for non-visible child {names[child]}"
                    )
                # the pending R-predecessors of ``child``, then ``child``;
                # an unranked child has none (its key exceeds every rank)
                rank = key[child]
                if rank < len(key):
                    while pending and pending[0][0] < rank:
                        run_child(heappop(pending)[1])
                run_child(child)
            elif kind == K_REPORT_ABORT:
                child = txns[position]
                if child not in aborted_emitted:
                    aborted_emitted.add(child)
                    output.append(Abort(names[child]))
            elif kind == K_REQUEST_COMMIT:
                while pending:
                    run_child(heappop(pending)[1])
            output.append(serial[position])
        # visible children whose reports never arrived (possible only at T0)
        while pending:
            run_child(heappop(pending)[1])


def witness_projection_problems(
    witness: Sequence[Action],
    visible: Iterable[TransactionName],
    local_sequence: Callable[[TransactionName], Behavior],
) -> List[str]:
    """Every ``T`` in ``visible`` with ``witness | T != beta | T``.

    ``local_sequence(T)`` supplies ``beta | T`` (for instance
    :meth:`HistoryIndex.project_transaction`).  One pass groups the
    witness by ``transaction(pi)``, so the check costs O(|witness|)
    plus one comparison per visible transaction, instead of a full
    :func:`project_transaction` scan per transaction.  Problems follow
    ``visible``'s iteration order.
    """
    groups: Dict[TransactionName, List[Action]] = {}
    for action in witness:
        transaction = transaction_of(action)
        if transaction is not None:
            groups.setdefault(transaction, []).append(action)
    return [
        f"witness projection differs at {transaction}"
        for transaction in visible
        if tuple(groups.get(transaction, ())) != local_sequence(transaction)
    ]


def _count_verdict(
    certificate: Certificate, metrics: Optional[MetricsRegistry]
) -> None:
    """Fold a finished certificate into ``metrics``."""
    if metrics is None:
        return
    metrics.inc("certify.runs")
    if certificate.certified:
        metrics.inc("certify.certified")
    else:
        metrics.inc("certify.rejected")
        if certificate.witness_problems:
            metrics.inc("certify.rejected.witness")
    metrics.set_gauge("certify.arv_violations", len(certificate.arv_violations))
    if certificate.witness is not None:
        metrics.set_gauge("certify.witness_events", len(certificate.witness))


# ---------------------------------------------------------------------------
# Serial behavior validation
# ---------------------------------------------------------------------------


def validate_serial_behavior(
    behavior: Sequence[Action], system_type: SystemType
) -> List[str]:
    """Check that a sequence of serial actions is a serial-system behavior.

    Replays the serial scheduler's rules (Section 2.2.3): creations and
    completions need prior requests, siblings never overlap, aborts hit
    only never-created transactions, a transaction commits only after all
    its requested children completed, reports follow completions.  Also
    replays each object's serial specification over its projection
    (serial object well-formedness plus operation legality).

    Returns a list of problem descriptions; empty means valid.
    """
    problems: List[str] = []
    create_requested: Set[TransactionName] = set()
    created: Set[TransactionName] = set()
    completed: Set[TransactionName] = set()
    committed: Dict[TransactionName, Any] = {}
    commit_requested: Dict[TransactionName, Any] = {}
    reported: Set[TransactionName] = set()
    children_requested: Dict[TransactionName, Set[TransactionName]] = {}
    active_child: Dict[TransactionName, Optional[TransactionName]] = {}

    def note(message: str, position: int, action: Action) -> None:
        problems.append(f"event {position} ({action}): {message}")

    for position, action in enumerate(behavior):
        if not is_serial_action(action):
            note("not a serial action", position, action)
            continue
        if isinstance(action, RequestCreate):
            child = action.transaction
            if child in create_requested:
                note("duplicate REQUEST_CREATE", position, action)
            parent = child.parent
            if not parent.is_root and parent not in created:
                note(
                    "transaction requested a child before being created",
                    position,
                    action,
                )
            create_requested.add(child)
            children_requested.setdefault(parent, set()).add(child)
        elif isinstance(action, Create):
            transaction = action.transaction
            if transaction.is_root:
                note("CREATE(T0) is not a serial action", position, action)
                continue
            if transaction not in create_requested:
                note("CREATE without REQUEST_CREATE", position, action)
            if transaction in created:
                note("duplicate CREATE", position, action)
            if transaction in completed:
                note("CREATE after completion", position, action)
            parent = transaction.parent
            sibling = active_child.get(parent)
            if sibling is not None and sibling != transaction:
                note(f"sibling {sibling} still active", position, action)
            created.add(transaction)
            active_child[parent] = transaction
        elif isinstance(action, RequestCommit):
            transaction = action.transaction
            if system_type.is_access(transaction):
                if transaction not in created:
                    note("access responded before CREATE", position, action)
            if transaction in commit_requested:
                note("duplicate REQUEST_COMMIT", position, action)
            commit_requested[transaction] = action.value
        elif isinstance(action, Commit):
            transaction = action.transaction
            if transaction not in commit_requested:
                note("COMMIT without REQUEST_COMMIT", position, action)
            if transaction in completed:
                note("second completion", position, action)
            for child in children_requested.get(transaction, ()):
                if child not in completed:
                    note(
                        f"COMMIT before requested child {child} completed",
                        position,
                        action,
                    )
            completed.add(transaction)
            committed[transaction] = commit_requested.get(transaction)
            if active_child.get(transaction.parent) == transaction:
                active_child[transaction.parent] = None
        elif isinstance(action, Abort):
            transaction = action.transaction
            if transaction not in create_requested:
                note("ABORT without REQUEST_CREATE", position, action)
            if transaction in created:
                note("serial scheduler aborts only never-created transactions",
                     position, action)
            if transaction in completed:
                note("second completion", position, action)
            completed.add(transaction)
        elif isinstance(action, ReportCommit):
            transaction = action.transaction
            if transaction not in committed:
                note("REPORT_COMMIT without COMMIT", position, action)
            elif committed[transaction] != action.value:
                note(
                    f"reported value {action.value!r} differs from committed "
                    f"value {committed[transaction]!r}",
                    position,
                    action,
                )
            if transaction in reported:
                note("duplicate report", position, action)
            reported.add(transaction)
        elif isinstance(action, ReportAbort):
            transaction = action.transaction
            if transaction not in completed or transaction in committed:
                note("REPORT_ABORT without ABORT", position, action)
            if transaction in reported:
                note("duplicate report", position, action)
            reported.add(transaction)

    problems.extend(object_replay_problems(behavior, system_type))
    return problems


def object_replay_problems(
    behavior: Sequence[Action], system_type: SystemType
) -> List[str]:
    """Replay every object's serial specification over ``behavior | X``.

    One pass groups the access CREATE/REQUEST_COMMIT events by object;
    each object's group (its projection ``behavior | X``) is then checked
    for serial-object well-formedness and operation legality, objects in
    name order.  Returns the problems of :func:`validate_serial_behavior`
    that concern objects.
    """
    is_access = system_type.is_access
    object_of = system_type.object_of
    by_object: Dict[ObjectName, List[Action]] = {}
    for action in behavior:
        if isinstance(action, (Create, RequestCommit)) and is_access(
            action.transaction
        ):
            by_object.setdefault(object_of(action.transaction), []).append(action)
    problems: List[str] = []
    for obj in system_type.object_names():
        projection = tuple(by_object.get(obj, ()))
        if not is_serial_object_well_formed(projection):
            problems.append(f"object {obj}: projection not serial-object well-formed")
            continue
        ops = operations_of_object(projection, obj, system_type)
        pairs = operation_payloads(ops, system_type)
        if not system_type.spec(obj).is_legal(pairs):
            problems.append(f"object {obj}: operation sequence illegal for the spec")
    return problems
