"""Tests for the online certifier's prefix-compaction mode.

The A/B contract (lint rule R001): every suite here runs the same
behavior through ``compaction=True`` and ``compaction=False`` engines
and requires identical *judgements* — ``certified``, the exact ARV
violation tuple, and whether a cycle latched.  The cycle *witness*
tuple may legitimately differ between engines (edge insertion order
differs once the conflict frontier replays evicted rows), so it is
deliberately excluded from the comparison.

Directed scenarios pin the tricky seams: legality resuming from the
compacted per-object summary state, aborts landing after waiting-list
entries were drained, late arrivals under already-retired top-level
subtrees, and frozen violations surviving row eviction.  The memory
tests assert the point of the whole feature: on a commit-as-you-go
stream the retained tracked-op count is bounded by the live window,
not the stream length.
"""

import pytest

from repro.core.actions import Commit, ReportCommit, RequestCommit, RequestCreate
from repro.core.online import OnlineCertifier
from repro.obs.tracer import RingBufferSink, Tracer
from repro.stream.workload import StreamWorkload, commit_as_you_go

from conftest import BehaviorBuilder, rw_system
from test_core_properties import random_simple_behavior
from test_online import random_contended_behavior


def judgement(verdict):
    """The engine-independent part of a verdict (witness excluded)."""
    return (verdict.certified, verdict.arv_violations, verdict.cycle is None)


def paired(system, interval=3):
    """A (baseline, compacted) certifier pair over the same system."""
    return (
        OnlineCertifier(system, compaction=False),
        OnlineCertifier(system, compaction=True, compaction_interval=interval),
    )


def assert_equivalent_per_step(behavior, system, interval=3, context=()):
    """Feed both engines action by action, comparing judgements each step."""
    baseline, compacted = paired(system, interval)
    for step, action in enumerate(behavior):
        baseline.feed(action)
        compacted.feed(action)
        assert judgement(baseline.verdict()) == judgement(compacted.verdict()), (
            *context,
            step,
        )


class TestRandomizedEquivalence:
    """200-seed sweeps over both generators, judged after every action."""

    def test_200_simple_seeds_agree_per_step(self):
        rejected = 0
        for seed in range(200):
            behavior, system = random_simple_behavior(seed, steps=35)
            assert_equivalent_per_step(behavior, system, context=(seed,))
            rejected += not OnlineCertifier(
                system, compaction=True, compaction_interval=3
            ).feed_all(behavior).certified
        # the sweep must actually exercise both outcomes
        assert 0 < rejected < 200

    def test_contended_interleavings_agree_and_latch_cycles(self):
        cyclic = 0
        for seed in range(60):
            behavior, system = random_contended_behavior(seed)
            assert_equivalent_per_step(behavior, system, interval=2, context=(seed,))
            verdict = OnlineCertifier(
                system, compaction=True, compaction_interval=2
            ).feed_all(behavior)
            cyclic += verdict.cycle is not None
        assert cyclic > 0

    def test_interval_one_most_aggressive_schedule(self):
        """Sweeping after every action is the worst case for staleness."""
        for seed in range(40):
            behavior, system = random_simple_behavior(seed, steps=30)
            assert_equivalent_per_step(behavior, system, interval=1, context=(seed,))


class TestDirectedScenarios:
    def test_read_resumes_from_compacted_state(self):
        """After t1's rows are trimmed, t2's legality must be judged
        against the compacted summary state, not the spec's initial."""
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.write(t1, "w", "x", 7)
        b.commit(t1)
        t2 = b.begin_top("t2")
        b.read(t2, "r", "x", 7)
        b.commit(t2)
        behavior = b.build()
        baseline, compacted = paired(system, interval=1)
        assert judgement(baseline.feed_all(behavior)) == judgement(
            compacted.feed_all(behavior)
        )
        assert compacted.verdict().certified
        assert compacted.compaction_stats()["evicted_rows"] > 0

    def test_stale_read_after_compaction_still_flagged(self):
        """The negative twin: a read of the *initial* value after a
        trimmed write is an ARV violation in both engines."""
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.write(t1, "w", "x", 7)
        b.commit(t1)
        t2 = b.begin_top("t2")
        b.read(t2, "r", "x", 0)
        b.commit(t2)
        behavior = b.build()
        baseline, compacted = paired(system, interval=1)
        left, right = baseline.feed_all(behavior), compacted.feed_all(behavior)
        assert judgement(left) == judgement(right)
        assert not right.certified
        assert right.arv_violations

    def test_frozen_violation_survives_row_eviction(self):
        """An already-illegal row that gets trimmed must keep reporting
        its violation, byte for byte, from the frozen record."""
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.read(t1, "r", "x", 99)  # illegal: initial value is 0
        b.commit(t1)
        for i in range(6):  # filler sweeps push the illegal row out
            t = b.begin_top(f"f{i}")
            b.write(t, "w", "x", i)
            b.commit(t)
        behavior = b.build()
        baseline, compacted = paired(system, interval=1)
        left, right = baseline.feed_all(behavior), compacted.feed_all(behavior)
        assert judgement(left) == judgement(right)
        assert right.arv_violations
        assert compacted.compaction_stats()["evicted_rows"] > 0

    def test_late_commit_after_sibling_prefix_compacted(self):
        """A transaction held open across many sweeps commits last; its
        operations become visible against an already-trimmed prefix."""
        system = rw_system("x")
        b = BehaviorBuilder(system)
        slow = b.begin_top("slow")
        access = b.read(slow, "r", "x", 0)  # legal when slow finally commits
        for i in range(8):
            t = b.begin_top(f"f{i}")
            b.write(t, "w", "x", i)
            b.commit(t)
        b.commit(slow)
        behavior = b.build()
        assert_equivalent_per_step(behavior, system, interval=1)

    def test_abort_after_ancestor_waiting_list_drained(self):
        """Abort a top whose committed descendants sat in its waiting
        bucket across compaction sweeps; the kill must find them (or
        their eviction must have been sound)."""
        system = rw_system("x", "y")
        b = BehaviorBuilder(system)
        doomed = b.begin_top("doomed")
        child = b.begin(doomed.child("c"))
        b.write(child, "w", "x", 5)
        b.commit(child)  # waits on doomed for visibility
        for i in range(6):
            t = b.begin_top(f"f{i}")
            b.write(t, "w", "y", i)
            b.commit(t)
        b.abort(doomed)
        t2 = b.begin_top("t2")
        b.read(t2, "r", "x", 0)  # doomed's write must NOT be visible
        b.commit(t2)
        behavior = b.build()
        baseline, compacted = paired(system, interval=1)
        left, right = baseline.feed_all(behavior), compacted.feed_all(behavior)
        assert judgement(left) == judgement(right)
        assert right.certified

    def test_late_arrivals_under_retired_top(self):
        """Resurrection: events naming an evicted subtree's transactions
        (late top-level report, late child creation) arrive after the
        subtree's records were dropped — root-level state is permanent,
        so both engines must still agree."""
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        b.write(t1, "w", "x", 3)
        # commit without the top-level report, so it can arrive late
        b.emit(RequestCommit(t1, "done"), Commit(t1))
        for i in range(6):
            t = b.begin_top(f"f{i}")
            b.write(t, "w", "x", i)
            b.commit(t)
        b.emit(ReportCommit(t1, "done"))  # late report
        b.emit(RequestCreate(t1.child("late")))  # late child request
        t2 = b.begin_top("t2")
        b.read(t2, "r", "x", 5)
        b.commit(t2)
        behavior = b.build()
        assert_equivalent_per_step(behavior, system, interval=1)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            OnlineCertifier(rw_system("x"), compaction=True, compaction_interval=0)


class TestMemoryBounds:
    def test_live_window_bounds_retained_ops_on_long_stream(self):
        """The acceptance property: on a commit-as-you-go stream the
        peak retained tracked-op count is a function of the live window,
        not the stream length."""
        workload = StreamWorkload(
            top_level=400, accesses=3, window=8, rotation=16, seed=11
        )
        system, actions = commit_as_you_go(workload)
        certifier = OnlineCertifier(
            system, compaction=True, compaction_interval=32
        )
        peak = 0
        for action in actions:
            certifier.feed(action)
            peak = max(peak, certifier.live_tracked_ops())
        # window * (top + accesses * ceremony-in-flight) plus sweep slack;
        # without compaction this stream retains ~400 * 4 = 1600 ops.
        assert peak <= 40 * workload.window
        stats = certifier.compaction_stats()
        assert stats["evicted_rows"] > 0
        assert stats["evicted_subtrees"] > 0
        assert stats["sweeps"] > 0

    def test_peak_does_not_grow_with_stream_length(self):
        """Doubling the stream must not move the peak (O(window), not O(n))."""
        peaks = []
        for top_level in (120, 240):
            workload = StreamWorkload(
                top_level=top_level, accesses=3, window=6, rotation=12, seed=5
            )
            system, actions = commit_as_you_go(workload)
            certifier = OnlineCertifier(
                system, compaction=True, compaction_interval=16
            )
            peak = 0
            for action in actions:
                certifier.feed(action)
                peak = max(peak, certifier.live_tracked_ops())
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 4  # sweep-phase slack only

    def test_stream_judgements_match_baseline(self):
        """Stream workloads through both engines, end to end."""
        for seed in range(5):
            workload = StreamWorkload(top_level=60, window=6, seed=seed)
            system, actions = commit_as_you_go(workload)
            behavior = list(actions)
            baseline, compacted = paired(system, interval=16)
            assert judgement(baseline.feed_all(behavior)) == judgement(
                compacted.feed_all(behavior)
            ), seed


class FalsyTracer(Tracer):
    """A real tracer whose truthiness is False — the regression shape
    for the ``tracer or None``-style construction bug."""

    def __bool__(self):
        return False


class TestTracerRetention:
    def test_falsy_tracer_is_not_dropped(self):
        sink = RingBufferSink()
        tracer = FalsyTracer(sink)
        system = rw_system("x")
        certifier = OnlineCertifier(system, tracer=tracer)
        assert certifier.tracer is tracer
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.write(t, "w", "x", 1)
        b.commit(t)
        certifier.feed_all(b.build())
        assert any(span.name == "online.feed" for span in sink.spans())

    def test_tracer_covers_compaction_sweeps(self):
        sink = RingBufferSink()
        tracer = FalsyTracer(sink)
        system = rw_system("x")
        certifier = OnlineCertifier(
            system, tracer=tracer, compaction=True, compaction_interval=1
        )
        b = BehaviorBuilder(system)
        for i in range(3):
            t = b.begin_top(f"t{i}")
            b.write(t, "w", "x", i)
            b.commit(t)
        certifier.feed_all(b.build())
        assert any(
            span.name == "online.compaction.sweep" for span in sink.spans()
        )
