"""Static robustness analysis over transaction-program templates.

Everything else in the repository certifies *executions* after the
fact.  This module is the design-time complement: given only the
program templates of :mod:`repro.sim.programs` (the ``seq``/``par``
nesting structure, the accesses with their operations, and the
``after_abort_of`` retry alternatives), decide whether **any**
interleaving the scheduler could produce yields a cyclic serialization
graph — the condition under which the Theorem 8/19 certifier rejects.

The analysis follows the robustness literature (Vandevoort & Koch on
MVRC, Nagar & Jagannathan on weak-consistency violations — PAPERS.md)
transplanted to the paper's nested-transaction model:

1. **Summary extraction** — each program forest is flattened into
   per-template access footprints.  Every access carries its full
   :class:`~repro.core.names.TransactionName`, its operation, and the
   set of *abort assumptions* under which it runs (an access inside an
   ``after_abort_of`` branch only executes in runs where the trigger
   subtree aborted — a disjunctive program path).  The ``seq``/``par``
   structure induces the guaranteed *precedes* order: a sequential
   program never requests call *j* before call *i < j* resolved.

2. **Static serialization graph** — for every sibling group in the
   forest (the paper's ``SG(beta)`` is a disjoint union of per-parent
   digraphs, so program-level cycles can live at any nesting level) we
   build potential CONFLICT edges between sibling subtrees from a sound
   may-conflict probe: read/write specs resolve structurally
   (``conflicts_iff_writer``), generic specifications are probed over
   the bounded per-object value domain reachable by executing subsets
   of the object's own access multiset, with verdicts memoized in the
   shared :class:`~repro.core.history.ConflictCache`.  Probes that
   exceed the enumeration budget degrade to *conflicting* — the sound
   direction.

3. **Dangerous-structure detection** — cycles in a group's potential
   graph are only dangerous if some run realizes every edge at once.
   For each candidate cycle we search assignments of per-edge witnesses
   (a concrete conflicting access pair, or a potential precedes edge)
   and accept exactly when the induced ordering constraints — template
   structure, witness order, report-before-request — are consistent
   (acyclic over the access instances) and the abort assumptions do not
   contradict the visibility the witnesses need.  Realized cycles are
   classified into the classical anomaly shapes (lost update, write
   skew, fractured read) and reported as a program-level
   counterexample sketch with a directed access schedule.

4. **Validation bridge** — with ``validate=True`` every NOT-ROBUST
   verdict is machine-checked against the dynamic certifier: a
   :class:`DirectedPolicy` drives :func:`repro.sim.driver.run_system`
   over the implicated templates (concurrency control removed — the
   :class:`repro.generic.permissive.PermissiveObject` services every
   access immediately) toward the counterexample's schedule, and the
   resulting behavior must make :func:`repro.core.correctness.certify`
   report a cycle; bounded random exploration is the fallback.  A
   ROBUST verdict is *sound* by construction; the test-suite gate
   additionally checks it against bounded dynamic exploration on a
   generated corpus.

The verdict is about the certifier's sufficient condition: NOT-ROBUST
means some schedule produces a cyclic serialization graph (which the
certifier rejects), not necessarily an actual serial-correctness
violation — the same precision gap experiment E4 measures dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
from ..core.correctness import certify
from ..core.history import ConflictCache, spec_is_read_only
from ..core.names import ROOT, ObjectName, TransactionName, lca
from ..core.serialization_graph import CONFLICT, PRECEDES
from ..obs import MetricsRegistry
from ..sim.policies import RandomPolicy, SchedulingPolicy
from ..sim.programs import (
    AccessCall,
    SubtransactionCall,
    TransactionProgram,
    system_type_for,
)

__all__ = [
    "ROBUST",
    "NOT_ROBUST",
    "LOST_UPDATE",
    "WRITE_SKEW",
    "FRACTURED_READ",
    "GENERAL",
    "StaticAccess",
    "ProgramSetSummary",
    "summarize_programs",
    "ConflictProbe",
    "ConflictWitness",
    "StaticEdge",
    "StaticGroup",
    "build_static_graph",
    "CycleEdge",
    "Counterexample",
    "ValidationResult",
    "RobustnessReport",
    "analyze_robustness",
    "DirectedPolicy",
    "explore_program_set",
    "validate_counterexample",
]

#: Verdicts.
ROBUST = "ROBUST"
NOT_ROBUST = "NOT-ROBUST"

#: Dangerous-structure classifications (see docs/STATIC_ANALYSIS.md).
LOST_UPDATE = "lost-update"
WRITE_SKEW = "write-skew"
FRACTURED_READ = "fractured-read"
GENERAL = "general"

#: Enumeration budgets.  Exceeding any of them sets ``truncated`` on the
#: report; a truncated ROBUST verdict is advisory rather than proven.
_MAX_CYCLES_PER_GROUP = 4000
_MAX_ASSIGNMENTS_PER_CYCLE = 4000
_MAX_WITNESSES_PER_EDGE = 12
_MAX_PROBE_OPS = 10
_MAX_PROBE_NODES = 4096


# ---------------------------------------------------------------------------
# 1. Summary extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticAccess:
    """One access leaf of a program forest.

    ``assumptions`` is the set of subtree names that must have aborted
    for this access to be issued at all: the ``after_abort_of`` triggers
    on the path from the template root down to the access.  An access
    with empty assumptions runs on every (non-aborted) path.
    """

    name: TransactionName
    obj: ObjectName
    op: Any
    read_only: bool
    assumptions: FrozenSet[TransactionName]

    def active_under(self, assumed: FrozenSet[TransactionName]) -> bool:
        """Does this access run — and stay visible — when exactly the
        subtrees in ``assumed`` abort?"""
        if not self.assumptions <= assumed:
            return False
        return not any(
            t == self.name or t.is_ancestor_of(self.name) for t in assumed
        )


@dataclass
class ProgramSetSummary:
    """The static footprint of a program forest.

    Maps every internal program node to its ordered children and
    sequential flag, every access leaf to its :class:`StaticAccess`,
    and every ``after_abort_of`` alternative to its trigger — enough to
    answer the two structural questions the analysis needs:
    :meth:`must_precede` (the guaranteed order between two names) and
    :meth:`subtree_accesses` (the footprint of a sibling subtree).
    """

    accesses: Dict[TransactionName, StaticAccess] = field(default_factory=dict)
    children: Dict[TransactionName, Tuple[TransactionName, ...]] = field(
        default_factory=dict
    )
    sequential: Dict[TransactionName, bool] = field(default_factory=dict)
    triggers: Dict[TransactionName, TransactionName] = field(default_factory=dict)
    _subtrees: Dict[TransactionName, Tuple[StaticAccess, ...]] = field(
        default_factory=dict
    )

    def subtree_accesses(self, node: TransactionName) -> Tuple[StaticAccess, ...]:
        """All access leaves at or below ``node`` (memoized)."""
        cached = self._subtrees.get(node)
        if cached is not None:
            return cached
        if node in self.accesses:
            result: Tuple[StaticAccess, ...] = (self.accesses[node],)
        else:
            result = tuple(
                access
                for child in self.children.get(node, ())
                for access in self.subtree_accesses(child)
            )
        self._subtrees[node] = result
        return result

    def must_precede(self, a: TransactionName, b: TransactionName) -> bool:
        """Is ``a``'s subtree guaranteed to resolve before ``b`` starts?

        True when the least common ancestor program is sequential and
        ``a``'s branch comes first, or when ``b``'s branch sits on an
        ``after_abort_of`` chain leading back to ``a``'s branch (an
        alternative is only requested once its trigger resolved).  The
        guarantee is conditional on both branches being issued at all —
        callers apply it to accesses already known active.
        """
        common = lca(a, b)
        if common == a or common == b:
            return False
        depth = common.depth + 1
        branch_a, branch_b = a.prefix(depth), b.prefix(depth)
        siblings = self.children.get(common)
        if siblings is None:
            return False
        if self.sequential.get(common, False):
            return siblings.index(branch_a) < siblings.index(branch_b)
        trigger = self.triggers.get(branch_b)
        while trigger is not None:
            if trigger == branch_a:
                return True
            trigger = self.triggers.get(trigger)
        return False


def _walk_program(
    summary: ProgramSetSummary,
    objects: Mapping[ObjectName, Any],
    node: TransactionName,
    program: TransactionProgram,
    inherited: FrozenSet[TransactionName],
) -> None:
    names: List[TransactionName] = []
    for call in program.calls:
        child = node.child(call.component)
        names.append(child)
        assumptions = inherited
        if call.after_abort_of is not None:
            trigger = node.child(call.after_abort_of)
            summary.triggers[child] = trigger
            assumptions = assumptions | {trigger}
        if isinstance(call, AccessCall):
            spec = objects.get(call.obj)
            summary.accesses[child] = StaticAccess(
                name=child,
                obj=call.obj,
                op=call.op,
                read_only=spec_is_read_only(spec, call.op),
                assumptions=assumptions,
            )
        elif isinstance(call, SubtransactionCall):
            _walk_program(summary, objects, child, call.program, assumptions)
        else:  # pragma: no cover - the DSL has exactly two call kinds
            raise TypeError(f"unknown call kind: {call!r}")
    summary.children[node] = tuple(names)
    summary.sequential[node] = program.sequential


def summarize_programs(
    objects: Mapping[ObjectName, Any],
    programs: Mapping[TransactionName, TransactionProgram],
) -> ProgramSetSummary:
    """Extract the static footprint of a program mapping.

    Accepts the same shape as :func:`repro.sim.programs.system_type_for`
    / :func:`repro.generic.system.make_generic_system`: typically
    ``{ROOT: root_program}``.  Mapping entries reachable from another
    entry (the :func:`collect_programs` flattened form) are walked once,
    from their forest root.  Multiple unrelated roots without a common
    program are treated as one parallel group under their parent —
    the scheduler is free to interleave them arbitrarily.
    """
    summary = ProgramSetSummary()
    roots = [
        name
        for name in programs
        if not any(
            other != name and other.is_ancestor_of(name) for other in programs
        )
    ]
    for root in roots:
        _walk_program(summary, objects, root, programs[root], frozenset())
    implicit = [root for root in roots if not root.is_root]
    if implicit:
        parent = implicit[0].parent
        if all(name.parent == parent for name in implicit):
            summary.children.setdefault(parent, tuple(implicit))
            summary.sequential.setdefault(parent, False)
    return summary


# ---------------------------------------------------------------------------
# 2. Sound may-conflict probing
# ---------------------------------------------------------------------------


class ConflictProbe:
    """A sound *may-conflict* oracle for one object.

    Every access in a program set runs at most once per execution, so
    the states any operation can observe are exactly those produced by
    applying a subset of the object's access multiset, in some order,
    to the initial state.  The probe enumerates that (bounded) state
    space, collects each operation's realizable return values, and asks
    the specification's ``conflicts`` predicate over the value cross
    product, memoized through the shared :class:`ConflictCache`.

    Degradations are always toward *conflicting* (the sound direction
    for a ROBUST verdict): read/write-style specs short-circuit on
    ``conflicts_iff_writer``, read-only pairs never conflict (the S002
    invariant), and anything the budget or the spec's surface cannot
    enumerate is reported as a potential conflict.
    """

    def __init__(
        self,
        spec: Any,
        ops: Sequence[Any],
        cache: ConflictCache,
        max_ops: int = _MAX_PROBE_OPS,
        max_nodes: int = _MAX_PROBE_NODES,
    ) -> None:
        self.spec = spec
        self.cache = cache
        self.iff_writer = bool(getattr(spec, "conflicts_iff_writer", False))
        self.truncated = False
        self._values: Dict[Any, Tuple[Any, ...]] = {}
        distinct: List[Any] = []
        for op in ops:
            if op not in distinct:
                distinct.append(op)
        if not self.iff_writer:
            self._enumerate(distinct, max_ops, max_nodes)

    def _enumerate(self, ops: List[Any], max_ops: int, max_nodes: int) -> None:
        if len(ops) > max_ops:
            self.truncated = True
            return
        apply = getattr(self.spec, "apply", None)
        initial = getattr(self.spec, "initial", None)
        if apply is None:
            self.truncated = True
            return
        seen: Set[Tuple[str, FrozenSet[int]]] = set()
        states: List[Any] = []
        state_keys: Set[str] = set()
        frontier: List[Tuple[Any, FrozenSet[int]]] = [(initial, frozenset())]
        values: Dict[int, Set[Any]] = {i: set() for i in range(len(ops))}
        value_order: Dict[int, List[Any]] = {i: [] for i in range(len(ops))}
        try:
            while frontier:
                state, used = frontier.pop()
                key = (repr(state), used)
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > max_nodes:
                    self.truncated = True
                    return
                if repr(state) not in state_keys:
                    state_keys.add(repr(state))
                    states.append(state)
                for index, op in enumerate(ops):
                    next_state, value = apply(state, op)
                    if value not in values[index]:
                        values[index].add(value)
                        value_order[index].append(value)
                    if index not in used:
                        frontier.append((next_state, used | {index}))
        except Exception:
            self.truncated = True
            return
        for index, op in enumerate(ops):
            self._values[op] = tuple(value_order[index])

    def may_conflict(self, op1: Any, op2: Any) -> bool:
        """Could ``op1`` and ``op2`` conflict under any realizable values?"""
        if spec_is_read_only(self.spec, op1) and spec_is_read_only(self.spec, op2):
            return False
        if self.iff_writer:
            return True
        if self.truncated:
            return True
        values1 = self._values.get(op1)
        values2 = self._values.get(op2)
        if values1 is None or values2 is None:
            return True
        return any(
            self.cache.conflicts(self.spec, op1, v1, op2, v2)
            for v1 in values1
            for v2 in values2
        )


def _build_probes(
    objects: Mapping[ObjectName, Any],
    summary: ProgramSetSummary,
    cache: ConflictCache,
) -> Dict[ObjectName, ConflictProbe]:
    per_object: Dict[ObjectName, List[Any]] = {}
    for access in summary.accesses.values():
        per_object.setdefault(access.obj, []).append(access.op)
    return {
        obj: ConflictProbe(objects.get(obj), ops, cache)
        for obj, ops in per_object.items()
    }


# ---------------------------------------------------------------------------
# 3. The static serialization graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConflictWitness:
    """A pair of accesses that can realize a conflict edge: the source
    access's ``REQUEST_COMMIT`` before the target's."""

    source: TransactionName
    target: TransactionName
    obj: ObjectName

    def to_dict(self) -> Dict[str, str]:
        return {
            "source": str(self.source),
            "target": str(self.target),
            "obj": str(self.obj),
        }


@dataclass(frozen=True)
class StaticEdge:
    """A potential edge between two sibling subtrees.

    ``forced`` marks edges present in *every* run where both sides are
    issued (sequential program order); unforced edges depend on the
    scheduler.  PRECEDES edges are recorded only when forced — a
    potential report-before-request edge exists between any unordered
    pair and is considered implicitly during cycle search.
    """

    source: TransactionName
    target: TransactionName
    kind: str
    forced: bool
    witnesses: Tuple[ConflictWitness, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": str(self.source),
            "target": str(self.target),
            "kind": self.kind,
            "forced": self.forced,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


@dataclass
class StaticGroup:
    """The static serialization graph of one sibling group."""

    parent: TransactionName
    members: Tuple[TransactionName, ...]
    edges: Tuple[StaticEdge, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "parent": str(self.parent),
            "members": [str(m) for m in self.members],
            "edges": [edge.to_dict() for edge in self.edges],
        }


def _compatible(a: StaticAccess, b: StaticAccess) -> bool:
    """Can both accesses be visible in one run?"""
    assumed = a.assumptions | b.assumptions
    return a.active_under(assumed) and b.active_under(assumed)


def _conflict_witnesses(
    summary: ProgramSetSummary,
    probes: Mapping[ObjectName, ConflictProbe],
    source: TransactionName,
    target: TransactionName,
) -> Tuple[ConflictWitness, ...]:
    witnesses: List[ConflictWitness] = []
    for a in summary.subtree_accesses(source):
        for b in summary.subtree_accesses(target):
            if a.obj != b.obj or not _compatible(a, b):
                continue
            probe = probes.get(a.obj)
            if probe is None or probe.may_conflict(a.op, b.op):
                witnesses.append(ConflictWitness(a.name, b.name, a.obj))
    return tuple(witnesses)


def build_static_graph(
    summary: ProgramSetSummary,
    probes: Mapping[ObjectName, ConflictProbe],
) -> Tuple[StaticGroup, ...]:
    """The per-sibling-group static serialization graphs of a forest.

    Conflict edges connect sibling subtrees with a compatible
    may-conflicting access pair, in every direction the structural
    order allows; forced PRECEDES edges record the sequential program
    order.  Groups are emitted for every program node with at least two
    calls, at every nesting depth.
    """
    groups: List[StaticGroup] = []
    for parent in sorted(summary.children):
        members = summary.children[parent]
        if len(members) < 2:
            continue
        edges: List[StaticEdge] = []
        for u in members:
            for v in members:
                if u == v or summary.must_precede(v, u):
                    continue
                forced = summary.must_precede(u, v)
                witnesses = _conflict_witnesses(summary, probes, u, v)
                if witnesses:
                    edges.append(
                        StaticEdge(u, v, CONFLICT, forced, witnesses)
                    )
                if forced:
                    edges.append(StaticEdge(u, v, PRECEDES, True))
        groups.append(StaticGroup(parent, members, tuple(edges)))
    return tuple(groups)


# ---------------------------------------------------------------------------
# 4. Dangerous-structure detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleEdge:
    """One edge of a realized cycle: a conflict witness or a potential
    report-before-request (PRECEDES) edge."""

    source: TransactionName
    target: TransactionName
    kind: str
    witness: Optional[ConflictWitness] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "source": str(self.source),
            "target": str(self.target),
            "kind": self.kind,
        }
        if self.witness is not None:
            payload["witness"] = self.witness.to_dict()
        return payload


@dataclass
class Counterexample:
    """A realizable cyclic structure, with the schedule that realizes it.

    ``schedule`` lists the access names of the implicated subtrees in a
    ``REQUEST_COMMIT`` order consistent with every constraint the cycle
    needs; ``assumed_aborts`` are the subtrees a run must abort to take
    the implicated ``after_abort_of`` branches.
    """

    parent: TransactionName
    nodes: Tuple[TransactionName, ...]
    edges: Tuple[CycleEdge, ...]
    classification: str
    assumed_aborts: FrozenSet[TransactionName]
    schedule: Tuple[TransactionName, ...]

    def sketch(self, summary: Optional[ProgramSetSummary] = None) -> str:
        """A human-readable program-level account of the cycle."""
        ring = " -> ".join(str(n) for n in self.nodes + (self.nodes[0],))
        lines = [
            f"potential cycle under {self.parent}: {ring} "
            f"[{self.classification}]"
        ]
        for edge in self.edges:
            if edge.witness is not None:
                w = edge.witness
                op: Any = ""
                target_op: Any = ""
                if summary is not None:
                    op = summary.accesses[w.source].op
                    target_op = summary.accesses[w.target].op
                lines.append(
                    f"  {edge.source} -> {edge.target}: "
                    f"{w.source} {op} commits before {w.target} {target_op} "
                    f"on {w.obj}"
                )
            else:
                lines.append(
                    f"  {edge.source} -> {edge.target}: {edge.source} "
                    "reports before {0} is requested".format(edge.target)
                )
        if self.assumed_aborts:
            aborted = ", ".join(str(t) for t in sorted(self.assumed_aborts))
            lines.append(f"  requires aborting: {aborted}")
        lines.append(
            "  directed schedule: "
            + ", ".join(str(name) for name in self.schedule)
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "parent": str(self.parent),
            "nodes": [str(n) for n in self.nodes],
            "classification": self.classification,
            "edges": [edge.to_dict() for edge in self.edges],
            "assumed_aborts": sorted(str(t) for t in self.assumed_aborts),
            "schedule": [str(name) for name in self.schedule],
        }


def _simple_cycles(
    members: Sequence[TransactionName],
    has_edge: Mapping[Tuple[TransactionName, TransactionName], bool],
    cap: int,
) -> Tuple[List[List[TransactionName]], bool]:
    """Simple cycles (length >= 2), canonicalized to start at their
    smallest member.  Returns ``(cycles, truncated)``."""
    ordered = sorted(members)
    rank = {name: index for index, name in enumerate(ordered)}
    cycles: List[List[TransactionName]] = []
    truncated = False

    def extend(start: TransactionName, path: List[TransactionName]) -> bool:
        if len(cycles) >= cap:
            return False
        current = path[-1]
        for candidate in ordered:
            if candidate == start and len(path) >= 2:
                if has_edge.get((current, start), False):
                    cycles.append(list(path))
                    if len(cycles) >= cap:
                        return False
                continue
            if rank[candidate] <= rank[start] or candidate in path:
                continue
            if not has_edge.get((current, candidate), False):
                continue
            if not extend(start, path + [candidate]):
                return False
        return True

    for start in ordered:
        if not extend(start, [start]):
            truncated = True
            break
    cycles.sort(key=len)
    return cycles, truncated


def _constraint_schedule(
    summary: ProgramSetSummary,
    nodes: Sequence[TransactionName],
    edges: Sequence[CycleEdge],
    assumed: FrozenSet[TransactionName],
) -> Optional[Tuple[TransactionName, ...]]:
    """A REQUEST_COMMIT order satisfying every constraint, or ``None``.

    Constraint graph over the *active* accesses of the cycle's nodes:
    structural ``must_precede`` pairs, witness order per conflict edge,
    and all-before-all per precedes edge.  Consistency = acyclicity;
    the topological order doubles as the directed schedule.
    """
    active: Dict[TransactionName, List[TransactionName]] = {}
    for node in nodes:
        active[node] = [
            access.name
            for access in summary.subtree_accesses(node)
            if access.active_under(assumed)
        ]
    instances: List[TransactionName] = [
        name for node in nodes for name in active[node]
    ]
    successors: Dict[TransactionName, Set[TransactionName]] = {
        name: set() for name in instances
    }
    for i, a in enumerate(instances):
        for b in instances[i + 1 :]:
            if summary.must_precede(a, b):
                successors[a].add(b)
            elif summary.must_precede(b, a):
                successors[b].add(a)
    for edge in edges:
        if edge.kind == CONFLICT:
            assert edge.witness is not None
            if (
                edge.witness.source not in successors
                or edge.witness.target not in successors
            ):
                return None
            successors[edge.witness.source].add(edge.witness.target)
        else:
            for a in active[edge.source]:
                for b in active[edge.target]:
                    successors[a].add(b)
    indegree: Dict[TransactionName, int] = {name: 0 for name in instances}
    for name in instances:
        for succ in successors[name]:
            if succ != name:
                indegree[succ] += 1
    ready = sorted(name for name in instances if indegree[name] == 0)
    order: List[TransactionName] = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        inserted = False
        for succ in sorted(successors[name]):
            if succ == name:
                continue
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
                inserted = True
        if inserted:
            ready.sort()
    if len(order) != len(instances):
        return None
    return tuple(order)


def _classify(
    summary: ProgramSetSummary, edges: Sequence[CycleEdge]
) -> str:
    """Name the dangerous structure a realized cycle exhibits."""
    if len(edges) != 2 or any(edge.kind != CONFLICT for edge in edges):
        return GENERAL
    first, second = edges
    assert first.witness is not None and second.witness is not None

    def shape(witness: ConflictWitness) -> Tuple[bool, bool]:
        return (
            summary.accesses[witness.source].read_only,
            summary.accesses[witness.target].read_only,
        )

    shape1, shape2 = shape(first.witness), shape(second.witness)
    read_before_write = (True, False)
    write_before_read = (False, True)
    if first.witness.obj == second.witness.obj:
        if shape1 == read_before_write and shape2 == read_before_write:
            return LOST_UPDATE
        return GENERAL
    if shape1 == read_before_write and shape2 == read_before_write:
        return WRITE_SKEW
    if {shape1, shape2} == {read_before_write, write_before_read}:
        return FRACTURED_READ
    return GENERAL


def _edge_assignments(
    options: Sequence[Sequence[Optional[ConflictWitness]]],
    cap: int,
) -> Iterator[Tuple[Optional[ConflictWitness], ...]]:
    """Cartesian product of per-edge witness options, bounded by ``cap``.

    ``None`` stands for the PRECEDES option; assignments with fewer than
    two conflict edges are skipped (a realizable cycle needs at least
    two — precedes chains embed in real time)."""
    count = 0
    stack: List[Optional[ConflictWitness]] = []

    def rec(position: int) -> Iterator[Tuple[Optional[ConflictWitness], ...]]:
        nonlocal count
        if count >= cap:
            return
        if position == len(options):
            count += 1
            chosen = tuple(stack)
            if sum(1 for witness in chosen if witness is not None) >= 2:
                yield chosen
            return
        for option in options[position]:
            stack.append(option)
            yield from rec(position + 1)
            stack.pop()
            if count >= cap:
                return

    yield from rec(0)


def _find_counterexample(
    summary: ProgramSetSummary,
    group: StaticGroup,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[Optional[Counterexample], bool]:
    """Search one group for a realizable cycle.

    Returns ``(counterexample, truncated)`` — the first realizable
    cycle in shortest-first order, or ``None`` with a flag telling
    whether any enumeration budget was hit."""
    conflict_witnesses: Dict[
        Tuple[TransactionName, TransactionName], Tuple[ConflictWitness, ...]
    ] = {}
    has_edge: Dict[Tuple[TransactionName, TransactionName], bool] = {}
    for u in group.members:
        for v in group.members:
            if u == v or summary.must_precede(v, u):
                continue
            has_edge[(u, v)] = True
    for edge in group.edges:
        if edge.kind == CONFLICT:
            conflict_witnesses[(edge.source, edge.target)] = edge.witnesses
    cycles, truncated = _simple_cycles(
        group.members, has_edge, _MAX_CYCLES_PER_GROUP
    )
    for cycle in cycles:
        pairs = [
            (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        ]
        with_witnesses = sum(1 for pair in pairs if conflict_witnesses.get(pair))
        if with_witnesses < 2:
            continue
        if metrics is not None:
            metrics.inc("robustness.cycles.checked")
        options: List[List[Optional[ConflictWitness]]] = []
        for pair in pairs:
            witnesses = list(conflict_witnesses.get(pair, ()))
            choice: List[Optional[ConflictWitness]] = list(
                witnesses[:_MAX_WITNESSES_PER_EDGE]
            )
            if len(witnesses) > _MAX_WITNESSES_PER_EDGE:
                truncated = True
            choice.append(None)
            options.append(choice)
        for assignment in _edge_assignments(
            options, _MAX_ASSIGNMENTS_PER_CYCLE
        ):
            edges = tuple(
                CycleEdge(
                    source,
                    target,
                    CONFLICT if witness is not None else PRECEDES,
                    witness,
                )
                for (source, target), witness in zip(pairs, assignment)
            )
            assumed = frozenset(
                assumption
                for edge in edges
                if edge.witness is not None
                for name in (edge.witness.source, edge.witness.target)
                for assumption in summary.accesses[name].assumptions
            )
            if not all(
                edge.witness is None
                or (
                    summary.accesses[edge.witness.source].active_under(assumed)
                    and summary.accesses[edge.witness.target].active_under(
                        assumed
                    )
                )
                for edge in edges
            ):
                continue
            schedule = _constraint_schedule(summary, cycle, edges, assumed)
            if schedule is None:
                continue
            return (
                Counterexample(
                    parent=group.parent,
                    nodes=tuple(cycle),
                    edges=edges,
                    classification=_classify(summary, edges),
                    assumed_aborts=assumed,
                    schedule=schedule,
                ),
                truncated,
            )
    return None, truncated


# ---------------------------------------------------------------------------
# 5. The validation bridge
# ---------------------------------------------------------------------------


@dataclass
class ValidationResult:
    """Outcome of machine-checking one counterexample dynamically."""

    witnessed: bool
    method: Optional[str]  # "directed" | "explored" | None
    runs: int
    cycle: Optional[Tuple[TransactionName, List[TransactionName]]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "witnessed": self.witnessed,
            "method": self.method,
            "runs": self.runs,
        }
        if self.cycle is not None:
            parent, nodes = self.cycle
            payload["cycle"] = {
                "parent": str(parent),
                "nodes": [str(n) for n in nodes],
            }
        return payload


class DirectedPolicy(SchedulingPolicy):
    """Drive the generic system toward a counterexample's schedule.

    A :class:`repro.sim.policies.SchedulingPolicy` that aborts the
    assumed subtrees at the first opportunity, delays every scheduled
    access's ``REQUEST_COMMIT`` until it is the next due one, closes
    finished subtrees promptly (so report-before-request edges land),
    and otherwise lets the system make progress deterministically.
    """

    def __init__(self, counterexample: Counterexample) -> None:
        self.schedule: Tuple[TransactionName, ...] = counterexample.schedule
        self.scheduled: FrozenSet[TransactionName] = frozenset(
            counterexample.schedule
        )
        self.assumed: FrozenSet[TransactionName] = counterexample.assumed_aborts
        self._completed: Set[TransactionName] = set()
        self._aborted: Set[TransactionName] = set()

    def observe(self, action: Action) -> None:
        if isinstance(action, Abort):
            self._aborted.add(action.transaction)
        elif isinstance(action, (ReportCommit, ReportAbort)):
            self._completed.add(action.transaction)

    def _dead(self, name: TransactionName) -> bool:
        return any(
            t == name or t.is_ancestor_of(name) for t in self._aborted
        )

    def _next_target(self) -> Optional[TransactionName]:
        for name in self.schedule:
            if name not in self._completed and not self._dead(name):
                return name
        return None

    def _priority(
        self, action: Action, target: Optional[TransactionName]
    ) -> int:
        transaction = action.transaction
        if isinstance(
            action,
            (Commit, ReportCommit, ReportAbort, InformCommit, InformAbort),
        ):
            return 0
        if isinstance(action, RequestCommit):
            if transaction in self.scheduled and transaction != target:
                return 4  # not due yet — hold the access back
            return 1
        if isinstance(action, (RequestCreate, Create)):
            if target is not None and (
                transaction == target or transaction.is_ancestor_of(target)
            ):
                return 2
            if any(
                transaction == t or transaction.is_ancestor_of(t)
                for t in self.assumed
            ):
                return 2  # reach the assumed subtree so it can be aborted
            if any(
                t.is_ancestor_of(transaction) for t in self.assumed
            ):
                return 5  # never start work under a doomed subtree
            if transaction in self.scheduled:
                return 4  # future scheduled access — hold back
            return 3
        return 3

    def choose(
        self,
        enabled: Sequence[Action],
        owed: Sequence[Action],
        aborts: Sequence[Abort],
    ) -> Optional[Action]:
        for abort in aborts:
            if (
                abort.transaction in self.assumed
                and abort.transaction not in self._aborted
            ):
                return abort
        if not enabled:
            return None
        target = self._next_target()
        return min(
            enabled, key=lambda action: (self._priority(action, target), repr(action))
        )


def _restrict_programs(
    programs: Mapping[TransactionName, TransactionProgram],
    counterexample: Counterexample,
) -> Dict[TransactionName, TransactionProgram]:
    """The implicated templates only: drop unrelated top-level calls.

    Keeps every top-level subtree the counterexample touches (cycle
    members, assumed-abort subtrees) plus, transitively, the triggers
    of any kept ``after_abort_of`` alternative, so the restricted root
    program stays well-formed.
    """
    needed: Set[TransactionName] = set()
    for name in counterexample.nodes:
        needed.add(name.prefix(1))
    for name in counterexample.assumed_aborts:
        needed.add(name.prefix(1))
    for name in counterexample.schedule:
        needed.add(name.prefix(1))
    root_program = programs.get(ROOT)
    if root_program is None:
        return {
            name: program
            for name, program in programs.items()
            if name in needed or not name.parent.is_root
        }
    keep: Set[str] = {name.path[0] for name in needed}
    changed = True
    while changed:
        changed = False
        for call in root_program.calls:
            if call.component in keep and call.after_abort_of is not None:
                if call.after_abort_of not in keep:
                    keep.add(call.after_abort_of)
                    changed = True
    calls = tuple(
        call for call in root_program.calls if call.component in keep
    )
    if len(calls) == len(root_program.calls):
        return dict(programs)
    result = root_program.result if not callable(root_program.result) else "ok"
    return {
        ROOT: TransactionProgram(
            calls, sequential=root_program.sequential, result=result
        )
    }


def _certified_cycle(
    behavior: Sequence[Action], objects: Mapping[ObjectName, Any],
    programs: Mapping[TransactionName, TransactionProgram],
) -> Optional[Tuple[TransactionName, List[TransactionName]]]:
    system_type = system_type_for(objects, programs)
    certificate = certify(behavior, system_type, construct_witness=False)
    return certificate.cycle


def _run_once(
    objects: Mapping[ObjectName, Any],
    programs: Mapping[TransactionName, TransactionProgram],
    policy: SchedulingPolicy,
    max_steps: int,
) -> Optional[Tuple[TransactionName, List[TransactionName]]]:
    from ..generic.permissive import PermissiveObject
    from ..generic.system import make_generic_system
    from ..sim.driver import run_system

    system_type = system_type_for(objects, programs)
    system = make_generic_system(system_type, programs, PermissiveObject)
    result = run_system(system, policy, system_type, max_steps=max_steps)
    certificate = certify(
        result.behavior, system_type, construct_witness=False
    )
    return certificate.cycle


def explore_program_set(
    objects: Mapping[ObjectName, Any],
    programs: Mapping[TransactionName, TransactionProgram],
    seeds: int = 8,
    max_steps: int = 4000,
) -> Optional[Tuple[TransactionName, List[TransactionName]]]:
    """Bounded dynamic exploration: random runs without concurrency
    control, certified after the fact.  Returns the first serialization
    graph cycle found, or ``None`` when every seeded run stays acyclic.
    """
    for seed in range(seeds):
        cycle = _run_once(objects, programs, RandomPolicy(seed), max_steps)
        if cycle is not None:
            return cycle
    return None


def validate_counterexample(
    objects: Mapping[ObjectName, Any],
    programs: Mapping[TransactionName, TransactionProgram],
    counterexample: Counterexample,
    explore_seeds: int = 8,
    max_steps: int = 4000,
) -> ValidationResult:
    """Machine-check a counterexample against the dynamic certifier.

    First a directed run: :class:`DirectedPolicy` steers the permissive
    system over the implicated templates toward the counterexample's
    schedule, and the resulting behavior is handed to ``certify`` —
    witnessed iff the certifier reports a cycle.  If direction misses
    (value-dependent conflicts can be schedule-sensitive), bounded
    random exploration of the same restricted templates is the
    fallback.
    """
    restricted = _restrict_programs(programs, counterexample)
    runs = 1
    cycle = _run_once(
        objects, restricted, DirectedPolicy(counterexample), max_steps
    )
    if cycle is not None:
        return ValidationResult(True, "directed", runs, cycle)
    for seed in range(explore_seeds):
        runs += 1
        cycle = _run_once(objects, restricted, RandomPolicy(seed), max_steps)
        if cycle is not None:
            return ValidationResult(True, "explored", runs, cycle)
    return ValidationResult(False, None, runs)


# ---------------------------------------------------------------------------
# 6. The analyzer entry point
# ---------------------------------------------------------------------------


@dataclass
class RobustnessReport:
    """The verdict and its evidence."""

    verdict: str
    groups: Tuple[StaticGroup, ...]
    counterexamples: Tuple[Counterexample, ...]
    validations: Tuple[ValidationResult, ...]
    truncated: bool
    summary: ProgramSetSummary

    @property
    def robust(self) -> bool:
        return self.verdict == ROBUST

    @property
    def witnessed(self) -> bool:
        """Did the validation bridge confirm at least one counterexample?"""
        return any(validation.witnessed for validation in self.validations)

    @property
    def classifications(self) -> Tuple[str, ...]:
        return tuple(cx.classification for cx in self.counterexamples)

    def explain(self) -> str:
        lines = [f"{self.verdict}"]
        if self.truncated:
            lines[0] += " (enumeration truncated — verdict advisory)"
        for group in self.groups:
            conflict_edges = [e for e in group.edges if e.kind == CONFLICT]
            lines.append(
                f"group under {group.parent}: {len(group.members)} members, "
                f"{len(conflict_edges)} potential conflict edge(s)"
            )
        for index, cx in enumerate(self.counterexamples):
            lines.append(cx.sketch(self.summary))
            if index < len(self.validations):
                validation = self.validations[index]
                if validation.witnessed:
                    lines.append(
                        f"  validated: concrete cyclic history via "
                        f"{validation.method} run ({validation.runs} run(s))"
                    )
                else:
                    lines.append(
                        f"  validation missed after {validation.runs} "
                        "bounded run(s)"
                    )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "robust": self.robust,
            "truncated": self.truncated,
            "groups": [group.to_dict() for group in self.groups],
            "counterexamples": [cx.to_dict() for cx in self.counterexamples],
            "validations": [v.to_dict() for v in self.validations],
        }


def analyze_robustness(
    objects: Mapping[ObjectName, Any],
    programs: Mapping[TransactionName, TransactionProgram],
    validate: bool = False,
    explore_seeds: int = 8,
    max_steps: int = 4000,
    cache: Optional[ConflictCache] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> RobustnessReport:
    """Decide whether a program set is robust (no reachable execution
    has a cyclic serialization graph).

    ``validate=True`` machine-checks every NOT-ROBUST verdict against
    the dynamic certifier through the validation bridge; ``validate=
    False`` is the static-only path (the default — analysis stays pure
    and fast).  The two lanes must agree on the verdict itself; only
    the evidence differs, which is what the A/B discipline (lint rule
    R001) keeps tested both ways.
    """
    if cache is None:
        cache = ConflictCache()
    if metrics is not None:
        metrics.inc("robustness.analyses")
    summary = summarize_programs(objects, programs)
    probes = _build_probes(objects, summary, cache)
    groups = build_static_graph(summary, probes)
    if metrics is not None:
        metrics.inc("robustness.groups", len(groups))
    truncated = any(probe.truncated for probe in probes.values())
    counterexamples: List[Counterexample] = []
    for group in groups:
        counterexample, group_truncated = _find_counterexample(
            summary, group, metrics
        )
        truncated = truncated or group_truncated
        if counterexample is not None:
            counterexamples.append(counterexample)
            if metrics is not None:
                metrics.inc("robustness.counterexamples")
    verdict = NOT_ROBUST if counterexamples else ROBUST
    if metrics is not None and verdict == NOT_ROBUST:
        metrics.inc("robustness.not_robust")
    validations: List[ValidationResult] = []
    if validate and counterexamples:
        for counterexample in counterexamples:
            validation = validate_counterexample(
                objects,
                programs,
                counterexample,
                explore_seeds=explore_seeds,
                max_steps=max_steps,
            )
            validations.append(validation)
            if metrics is not None:
                if validation.method == "directed":
                    metrics.inc("robustness.validation.directed")
                elif validation.method == "explored":
                    metrics.inc("robustness.validation.explored")
                else:
                    metrics.inc("robustness.validation.missed")
    return RobustnessReport(
        verdict=verdict,
        groups=groups,
        counterexamples=tuple(counterexamples),
        validations=tuple(validations),
        truncated=truncated,
        summary=summary,
    )
