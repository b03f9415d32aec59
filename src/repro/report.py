"""Human-facing reports: certificate summaries and Graphviz export.

The certifier produces structured results (:class:`repro.core.correctness.Certificate`);
this module renders them for people — a text report suitable for logs
and a DOT rendering of the serialization graph for visual inspection
(`dot -Tpng` or any Graphviz viewer).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .core.actions import Action, format_behavior
from .core.correctness import Certificate
from .core.events import StatusIndex, serial_projection
from .core.explain import CycleExplanation
from .core.names import SystemType
from .core.serialization_graph import CONFLICT, PRECEDES, SerializationGraph

__all__ = [
    "serialization_graph_to_dot",
    "certificate_report",
    "behavior_summary",
    "explanation_report",
]

_EDGE_STYLE = {
    CONFLICT: 'color="firebrick"',
    PRECEDES: 'color="steelblue", style=dashed',
}


def serialization_graph_to_dot(
    graph: SerializationGraph,
    explanation: Optional[CycleExplanation] = None,
) -> str:
    """Render ``SG(beta)`` as Graphviz DOT, one cluster per sibling group.

    With an ``explanation`` (from :func:`repro.core.explain.explain_cycle`), the
    cycle's edges are drawn bold with their first concrete witness — the
    conflicting operation pair, or the report/request positions — as the
    edge label, so the rejected run's provenance is readable straight
    off the picture.
    """
    witness_labels: Dict[Tuple[object, object], str] = {}
    if explanation is not None:
        for edge in explanation.edges:
            if edge.conflicts:
                witness = edge.conflicts[0]
                text = (
                    f"{witness.obj}: {witness.first_op}@{witness.first_position}"
                    f" vs {witness.second_op}@{witness.second_position}"
                )
            elif edge.precedes:
                hit = edge.precedes[0]
                text = (
                    f"report@{hit.report_position}"
                    f" < request@{hit.request_position}"
                )
            else:
                text = "unwitnessed"
            witness_labels[(edge.source, edge.target)] = text
    lines = ["digraph SG {", "  rankdir=LR;", "  node [shape=box, fontsize=10];"]
    for cluster, parent in enumerate(graph.parents()):
        lines.append(f"  subgraph cluster_{cluster} {{")
        lines.append(f'    label="children of {parent}";')
        sub = graph.graph_for(parent)
        for node in sub.nodes():
            lines.append(f'    "{node}";')
        for src, dst, labels in sub.edges():
            witness_text = witness_labels.get((src, dst))
            for label in sorted(labels) or [""]:
                style = _EDGE_STYLE.get(label, "")
                if witness_text is not None:
                    text = f"{label}\\n{witness_text}" if label else witness_text
                    attributes = f'label="{text}", penwidth=2.5' + (
                        f", {style}" if style else ""
                    )
                else:
                    attributes = f'label="{label}"' + (f", {style}" if style else "")
                lines.append(f'    "{src}" -> "{dst}" [{attributes}];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def explanation_report(explanation: CycleExplanation) -> str:
    """A multi-line text rendering of one cycle's provenance."""
    lines = [
        f"cycle in sibling group of {explanation.parent}: "
        + " -> ".join(str(node) for node in explanation.nodes),
        f"witnesses {'complete' if explanation.complete else 'INCOMPLETE'}"
        f" over {len(explanation.edges)} edge(s)",
    ]
    for edge in explanation.edges:
        kinds = "+".join(edge.kinds) if edge.kinds else "unwitnessed"
        lines.append(f"edge {edge.source} -> {edge.target} [{kinds}]")
        for witness in edge.conflicts:
            lines.append(f"  conflict {witness}")
        for precedes_witness in edge.precedes:
            lines.append(f"  precedes {precedes_witness}")
    return "\n".join(lines)


def behavior_summary(
    behavior: Sequence[Action], system_type: SystemType
) -> List[str]:
    """A few orientation lines about a behavior (sizes, completions)."""
    serial = serial_projection(behavior)
    index = StatusIndex(serial)
    accesses = sum(
        1 for t in index.commit_requested if system_type.is_access(t)
    )
    return [
        f"events: {len(behavior)} total, {len(serial)} serial",
        f"transactions committed: {len(index.committed)}, "
        f"aborted: {len(index.aborted)}",
        f"accesses answered: {accesses}",
        f"objects: {len(system_type.object_names())}",
    ]


def certificate_report(
    certificate: Certificate,
    behavior: Optional[Sequence[Action]] = None,
    system_type: Optional[SystemType] = None,
    witness_preview: int = 0,
) -> str:
    """A multi-line text report of a certification outcome."""
    lines: List[str] = []
    if behavior is not None and system_type is not None:
        lines.extend(behavior_summary(behavior, system_type))
        lines.append("")
    lines.append(certificate.explain())
    graph = certificate.graph
    lines.append(
        f"serialization graph: {len(graph.parents())} sibling group(s), "
        f"{len(graph.nodes())} node(s), {graph.edge_count()} edge(s)"
    )
    conflict_edges = [e for e in graph.edges() if e.kind == CONFLICT]
    precedes_edges = [e for e in graph.edges() if e.kind == PRECEDES]
    lines.append(
        f"  {len(conflict_edges)} conflict edge(s), "
        f"{len(precedes_edges)} precedes edge(s)"
    )
    for edge in list(graph.edges())[:20]:
        lines.append(f"  {edge}")
    if certificate.witness is not None and witness_preview > 0:
        lines.append("")
        lines.append(
            f"witness serial behavior ({len(certificate.witness)} events, "
            f"showing {min(witness_preview, len(certificate.witness))}):"
        )
        lines.append(format_behavior(certificate.witness[:witness_preview]))
    return "\n".join(lines)
