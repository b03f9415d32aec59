"""SG-cycle provenance: map violation edges back to operation pairs.

A latched cycle ``(parent, [S1, S2, ..., S1])`` says *that* the behavior
is uncertifiable; an operator debugging a rejected stream needs *why* —
which concrete operations, at which stream positions, with which return
values, induced each edge.  The serialization graph itself does not
carry that: an edge collapses every conflicting descendant pair to one
``(sibling, sibling)`` arrow, and the online certifier additionally
drops intra-subtree evidence under compaction.

This module re-derives the evidence from a :class:`HistoryIndex` over
the full behavior — its visible per-object access sequences and its
first-report / request-create positions, the data
:func:`conflict_pairs` and :func:`precedes_pairs` are defined over — so
the witnesses are consistent with the batch relations *by construction*:

* a **conflict witness** for edge ``(S, T)`` under ``parent`` is an
  ordered pair of visible access ``REQUEST_COMMIT`` events on one
  object, the first under ``S`` and the second under ``T``, whose
  operations fail to commute backward per the object specification
  (``S``/``T`` being distinct siblings forces ``lca = parent``, exactly
  the pair :func:`conflict_pairs` would collapse to this edge);
* a **precedes witness** is the first report position of ``S`` against
  the request-create position of ``T`` under their (visible) common
  parent — the external-consistency obligation of Section 4.

:func:`explain_cycle` assembles one witness list per cycle edge;
:func:`explain_behavior` is the one-call form (build the graph on the
batch engine, find the cycle :func:`repro.core.correctness.certify`
reports, explain it) behind the ``repro explain`` CLI, whose DOT rendering
(:func:`repro.report.serialization_graph_to_dot` with an
``explanation=``) annotates the guilty edges.  Everything here is
cold-path diagnostics: nothing is invoked unless a violation is being
investigated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .actions import Action
from .columnar import ColumnarHistory, build_columnar_graph
from .history import HistoryIndex
from .names import ROOT, ObjectName, SystemType, TransactionName
from .serialization_graph import CONFLICT, PRECEDES, SerializationGraph

__all__ = [
    "ConflictWitness",
    "PrecedesWitness",
    "EdgeExplanation",
    "CycleExplanation",
    "explain_edge",
    "explain_cycle",
    "explain_behavior",
]


@dataclass(frozen=True)
class ConflictWitness:
    """One ordered pair of conflicting visible operations behind an edge."""

    obj: ObjectName
    first: TransactionName
    first_position: int
    first_op: Any
    first_value: Any
    second: TransactionName
    second_position: int
    second_op: Any
    second_value: Any

    def to_dict(self) -> Dict[str, Any]:
        return {
            "object": str(self.obj),
            "first": {
                "transaction": str(self.first),
                "position": self.first_position,
                "op": str(self.first_op),
                "value": self.first_value,
            },
            "second": {
                "transaction": str(self.second),
                "position": self.second_position,
                "op": str(self.second_op),
                "value": self.second_value,
            },
        }

    def __str__(self) -> str:
        return (
            f"{self.obj}: {self.first} {self.first_op}@{self.first_position}"
            f" then {self.second} {self.second_op}@{self.second_position}"
        )


@dataclass(frozen=True)
class PrecedesWitness:
    """The report-before-request evidence behind a PRECEDES edge."""

    reported: TransactionName
    report_position: int
    requested: TransactionName
    request_position: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "reported": str(self.reported),
            "report_position": self.report_position,
            "requested": str(self.requested),
            "request_position": self.request_position,
        }

    def __str__(self) -> str:
        return (
            f"report of {self.reported}@{self.report_position} before"
            f" REQUEST_CREATE({self.requested})@{self.request_position}"
        )


@dataclass(frozen=True)
class EdgeExplanation:
    """Everything the history says about one sibling edge."""

    source: TransactionName
    target: TransactionName
    conflicts: Tuple[ConflictWitness, ...]
    precedes: Tuple[PrecedesWitness, ...]

    @property
    def kinds(self) -> Tuple[str, ...]:
        """The edge labels the witnesses substantiate."""
        kinds: List[str] = []
        if self.conflicts:
            kinds.append(CONFLICT)
        if self.precedes:
            kinds.append(PRECEDES)
        return tuple(kinds)

    @property
    def witnessed(self) -> bool:
        return bool(self.conflicts or self.precedes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": str(self.source),
            "target": str(self.target),
            "kinds": list(self.kinds),
            "conflicts": [witness.to_dict() for witness in self.conflicts],
            "precedes": [witness.to_dict() for witness in self.precedes],
        }


@dataclass(frozen=True)
class CycleExplanation:
    """A full provenance report for one SG cycle."""

    parent: TransactionName
    nodes: Tuple[TransactionName, ...]
    edges: Tuple[EdgeExplanation, ...]

    @property
    def complete(self) -> bool:
        """True iff every edge of the cycle has at least one witness."""
        return all(edge.witnessed for edge in self.edges)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "parent": str(self.parent),
            "nodes": [str(node) for node in self.nodes],
            "complete": self.complete,
            "edges": [edge.to_dict() for edge in self.edges],
        }

    def edge_pairs(self) -> Tuple[Tuple[TransactionName, TransactionName], ...]:
        """The (source, target) pairs of the cycle, in traversal order."""
        return tuple(
            (explanation.source, explanation.target)
            for explanation in self.edges
        )


def explain_edge(
    index: HistoryIndex,
    system_type: SystemType,
    source: TransactionName,
    target: TransactionName,
    max_witnesses: int = 0,
) -> EdgeExplanation:
    """All operation-pair evidence for the sibling edge ``source → target``.

    ``source`` and ``target`` must be distinct siblings (same parent);
    the index must cover the behavior under explanation and have been
    built with ``system_type``.  ``max_witnesses`` caps the conflict
    witnesses collected per object (0 = unbounded) — a hot object can
    carry quadratically many, and one is enough to substantiate the
    edge.
    """
    if source.parent != target.parent or source == target:
        raise ValueError(
            f"{source} and {target} are not siblings; no SG edge exists"
        )
    if index.system_type is not system_type:
        raise ValueError("index was built for a different system type")
    conflicts: List[ConflictWitness] = []
    cache = index.conflict_cache
    for obj in index.objects_with_accesses():
        spec = system_type.spec(obj)
        events = index.visible_access_commits(obj)
        # descendants of source/target on this object, in behavior order
        under_source = [e for e in events if source.is_ancestor_of(e[1])]
        under_target = [e for e in events if target.is_ancestor_of(e[1])]
        if not under_source or not under_target:
            continue
        found = 0
        for first_pos, first_name, first_op, first_value in under_source:
            for second_pos, second_name, second_op, second_value in under_target:
                if second_pos < first_pos:
                    continue
                if not cache.conflicts(
                    spec, first_op, first_value, second_op, second_value
                ):
                    continue
                # source/target are distinct siblings, so lca(first,
                # second) is their parent: exactly the pair
                # conflict_pairs collapses to this edge
                conflicts.append(
                    ConflictWitness(
                        obj,
                        first_name,
                        first_pos,
                        first_op,
                        first_value,
                        second_name,
                        second_pos,
                        second_op,
                        second_value,
                    )
                )
                found += 1
                if max_witnesses and found >= max_witnesses:
                    break
            if max_witnesses and found >= max_witnesses:
                break
    precedes: List[PrecedesWitness] = []
    report_position = index.first_report.get(source)
    request_position = index.request_create_positions.get(target)
    if (
        report_position is not None
        and request_position is not None
        and report_position < request_position
        and index.is_visible(source.parent, ROOT)
    ):
        precedes.append(
            PrecedesWitness(source, report_position, target, request_position)
        )
    return EdgeExplanation(source, target, tuple(conflicts), tuple(precedes))


def explain_cycle(
    behavior: Sequence[Action],
    system_type: SystemType,
    cycle: Tuple[TransactionName, Sequence[TransactionName]],
    index: Optional[HistoryIndex] = None,
    max_witnesses: int = 0,
) -> CycleExplanation:
    """Explain every edge of ``cycle`` (as latched by a certifier).

    ``cycle`` is the ``(parent, [S1, ..., S1])`` shape
    :meth:`SerializationGraph.find_cycle` and the online certifier
    produce — the first node repeated last, so consecutive pairs are
    exactly the cycle's edges.
    """
    parent, nodes = cycle
    if len(nodes) < 2:
        raise ValueError("a cycle needs at least one edge")
    if index is None or not index.covers(behavior):
        index = HistoryIndex(behavior, system_type)
    edges = tuple(
        explain_edge(
            index, system_type, nodes[i], nodes[i + 1], max_witnesses
        )
        for i in range(len(nodes) - 1)
    )
    return CycleExplanation(parent, tuple(nodes), edges)


def explain_behavior(
    behavior: Sequence[Action],
    system_type: SystemType,
    max_witnesses: int = 0,
) -> Optional[Tuple[CycleExplanation, SerializationGraph]]:
    """Find one SG cycle in ``behavior`` and explain it, or ``None``.

    The one-call form behind ``repro explain``: streams the behavior into
    a :class:`repro.core.columnar.ColumnarHistory`, builds ``SG(beta)``
    on its dense ids and takes the cycle ``certify`` reports, then maps
    every edge of it back to operation pairs.  Returns the explanation
    together with the graph (for DOT rendering).
    """
    store = ColumnarHistory(system_type)
    store.extend(behavior)
    graph = build_columnar_graph(store)
    cycle = graph.find_cycle()
    if cycle is None:
        return None
    return (
        explain_cycle(behavior, system_type, cycle, max_witnesses=max_witnesses),
        graph,
    )
