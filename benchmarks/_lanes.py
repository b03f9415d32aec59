"""The object-representation baseline lanes of E14 and E17.

``certify`` runs the columnar engine.  The experiments that measure it
against the earlier engines rebuild those engines here from the
paper-definition phase functions, without the witness (both experiments
certify with ``construct_witness=False``): serial projection, one shared
``HistoryIndex`` (or, for the naive lane, the plain ``StatusIndex``
scans), the ARV check, ``build_serialization_graph`` and its cycle
search.
"""

from __future__ import annotations

import time

from repro import (
    HistoryIndex,
    MetricsRegistry,
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
