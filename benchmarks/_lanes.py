"""The baseline lanes of E13, E14 and E17.

``certify`` runs the columnar engine.  The experiments that measure it
against the earlier engines rebuild those engines here, without the
witness (both experiments certify with ``construct_witness=False``):
serial projection, the ARV check, ``SG(beta)`` and its cycle search.

* The **indexed** lane (E14, E17) threads one shared ``HistoryIndex``
  through every phase.  ``conflict(beta)`` is the writer-boundary scan
  over the index's per-object buckets: a read is compared only with
  the writers after it, so read/read pairs never reach the
  specification, and verdicts are memoized in the index's
  ``ConflictCache``.  ``precedes(beta)`` is ``precedes_pairs``, which
  compares each report only with its siblings' requests.
* The **naive** lane (E14) answers visibility from a plain
  ``StatusIndex``.  ``conflict(beta)`` is ``conflict_pairs``, the
  definitional all-pairs scan, and ``precedes(beta)`` compares every
  report with every ``REQUEST_CREATE`` in the log.

``OnlineCertifier`` checks acyclicity with Pearce–Kelly order
maintenance.  E13's naive lane rebuilds the full-DFS check it replaced
on top of the same engine: after each feed that adds an edge, a cycle
search over the whole accumulated graph.

E14 and E17 time each lane ``RUNS`` times per size with
:func:`interleaved_runs`, so a baseline carries a median and the runs
it came from rather than one run's noise.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_right

from _smoke import pick
from repro import (
    CONFLICT,
    PRECEDES,
    ROOT,
    HistoryIndex,
    MetricsRegistry,
    OnlineCertifier,
    RequestCreate,
    SerializationGraph,
    SiblingEdge,
    StatusIndex,
    check_appropriate_return_values,
    conflict_pairs,
    lca,
    precedes_pairs,
    serial_projection,
)
from repro.core.actions import is_report
from repro.core.history import spec_is_read_only

#: timed runs per lane and size (one under ``BENCH_SMOKE``)
RUNS = pick(5, 1)


def _edge_key(edge):
    return edge.source, edge.target


def writer_boundary_conflict_pairs(index, system_type, registry):
    """``conflict(beta)`` over ``index``'s visible per-object buckets.

    A read-only operation is compared only with the writers after it; a
    writer with everything after it.  The pairs compared and skipped,
    and the cache's hits and size, go to ``registry`` under
    ``history.index.conflict.*``.
    """
    edges = set()
    cache = index.conflict_cache
    checked = skipped = 0
    for obj in index.objects_with_accesses():
        spec = system_type.spec(obj)
        events = index.visible_access_commits(obj)
        k = len(events)
        if k < 2:
            continue
        read_only = [spec_is_read_only(spec, entry[2]) for entry in events]
        writers = [i for i in range(k) if not read_only[i]]
        compared = 0
        for i in range(k):
            _, name_i, op_i, value_i = events[i]
            if read_only[i]:
                partners = writers[bisect_right(writers, i):]
            else:
                partners = range(i + 1, k)
            for j in partners:
                compared += 1
                _, name_j, op_j, value_j = events[j]
                if name_i.is_related_to(name_j):
                    continue
                if not cache.conflicts(spec, op_i, value_i, op_j, value_j):
                    continue
                depth = lca(name_i, name_j).depth + 1
                edges.add(
                    SiblingEdge(name_i.prefix(depth), name_j.prefix(depth), CONFLICT)
                )
        checked += compared
        skipped += k * (k - 1) // 2 - compared
    registry.inc("history.index.conflict.pairs_checked", checked)
    registry.inc("history.index.conflict.pairs_skipped_read_runs", skipped)
    registry.inc("history.index.conflict.cache_hits", cache.hits)
    registry.set_gauge("history.index.conflict.cache_size", len(cache))
    return sorted(edges, key=_edge_key)


def quadratic_precedes_pairs(behavior, index):
    """``precedes(beta)`` comparing every first report with every first
    ``REQUEST_CREATE`` of the log, siblings or not."""
    first_report = {}
    request_creates = {}
    for position, action in enumerate(behavior):
        if is_report(action):
            first_report.setdefault(action.transaction, position)
        elif isinstance(action, RequestCreate):
            request_creates.setdefault(action.transaction, position)
    edges = set()
    for reported, report_position in first_report.items():
        parent = reported.parent
        if not index.is_visible(parent, ROOT):
            continue
        for requested, request_position in request_creates.items():
            if requested == reported or requested.is_root:
                continue
            if requested.parent != parent:
                continue
            if report_position < request_position:
                edges.add(SiblingEdge(reported, requested, PRECEDES))
    return sorted(edges, key=_edge_key)


def timed_object_lane(behavior, system_type, *, indexed: bool):
    """Run one lane over ``behavior``; returns ``(certified, cycle)``, the
    seconds it took and its metric counters (``history.index.*`` on the
    indexed lane)."""
    registry = MetricsRegistry()
    start = time.perf_counter()
    serial = serial_projection(behavior)
    if indexed:
        index = HistoryIndex(serial, system_type, registry)
    else:
        index = StatusIndex(serial)
    violations = check_appropriate_return_values(serial, system_type, index)
    graph = SerializationGraph()
    for transaction in sorted(index.create_requested):
        if index.is_visible(transaction.parent, ROOT):
            graph.add_node(transaction)
    if indexed:
        conflicts = writer_boundary_conflict_pairs(index, system_type, registry)
        precedes = precedes_pairs(serial, index)
    else:
        conflicts = conflict_pairs(serial, system_type, index)
        precedes = quadratic_precedes_pairs(serial, index)
    for edge in conflicts + precedes:
        graph.add_edge(edge)
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


def interleaved_runs(*lanes):
    """Time each lane ``RUNS`` times, one run of every lane per round.

    A lane is a callable returning ``(verdict, seconds, counters)``.
    Returns, per lane, its first run's verdict, the median seconds,
    every run's seconds in order, and its first run's counters.
    """
    first = [lane() for lane in lanes]
    seconds = [[run[1]] for run in first]
    for _ in range(RUNS - 1):
        for times, lane in zip(seconds, lanes):
            times.append(lane()[1])
    return [
        (run[0], statistics.median(times), times, run[2])
        for run, times in zip(first, seconds)
    ]
