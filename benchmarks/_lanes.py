"""The baseline lanes of E13, E14 and E17.

``certify`` runs the columnar engine.  The experiments that measure it
against the earlier engines rebuild those engines here from the
paper-definition phase functions, without the witness (both experiments
certify with ``construct_witness=False``): serial projection, one shared
``HistoryIndex`` (or, for the naive lane, the plain ``StatusIndex``
scans), the ARV check, ``build_serialization_graph`` and its cycle
search.

``OnlineCertifier`` checks acyclicity with Pearce–Kelly order
maintenance.  E13's naive lane rebuilds the full-DFS check it replaced
on top of the same engine: after each feed that adds an edge, a cycle
search over the whole accumulated graph.
"""

from __future__ import annotations

import time

from repro import (
    HistoryIndex,
    MetricsRegistry,
    OnlineCertifier,
    StatusIndex,
    build_serialization_graph,
    check_appropriate_return_values,
    serial_projection,
)


def timed_object_lane(behavior, system_type, *, indexed: bool):
    """Run one lane over ``behavior``; returns ``(certified, cycle)``, the
    seconds it took and its metric counters (``history.index.*`` on the
    indexed lane)."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    serial = serial_projection(behavior)
    index = (
        HistoryIndex(serial, system_type, registry)
        if indexed
        else StatusIndex(serial)
    )
    violations = check_appropriate_return_values(serial, system_type, index)
    graph = build_serialization_graph(
        serial, system_type, index, metrics=registry, indexed=indexed
    )
    cycle = graph.find_cycle()
    seconds = time.perf_counter() - start
    verdict = (not violations and cycle is None, cycle)
    return verdict, seconds, registry.snapshot()["counters"]


def timed_online_lane(behavior, system_type, *, naive: bool):
    """Feed ``behavior`` to an ``OnlineCertifier``; returns ``(certified,
    cyclic)``, the seconds it took and its metric counters.  The naive
    lane takes ``cyclic`` from its own DFS runs, counted in
    ``naive.cycle_checks``, and stops searching once one finds a cycle."""
    registry = MetricsRegistry()
    certifier = OnlineCertifier(system_type, metrics=registry)
    conflict = registry.counter("online.edges.conflict")
    precedes = registry.counter("online.edges.precedes")
    edges = checks = 0
    found = False
    start = time.perf_counter()
    for action in behavior:
        certifier.feed(action)
        if naive and not found and conflict.snapshot() + precedes.snapshot() != edges:
            edges = conflict.snapshot() + precedes.snapshot()
            checks += 1
            found = certifier.graph.find_cycle() is not None
    verdict = certifier.verdict()
    seconds = time.perf_counter() - start
    cyclic = found if naive else verdict.cycle is not None
    counters = registry.snapshot()["counters"]
    counters["naive.cycle_checks"] = checks
    return (not verdict.arv_violations and not cyclic, cyclic), seconds, counters
