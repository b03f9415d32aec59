"""Tests for the :mod:`repro.stream` feed service.

``pytest-asyncio`` is deliberately not a dependency; every test drives
the event loop itself through :func:`asyncio.run`, which also mirrors
how the CLI subcommand uses the service.
"""

import asyncio
import random

import pytest

from repro.core.names import Access, ObjectName, SystemType
from repro.core.online import OnlineCertifier
from repro.obs.metrics import MetricsRegistry
from repro.stream.service import (
    SessionResult,
    StreamConfig,
    StreamService,
    certify_stream,
)
from repro.stream.workload import StreamWorkload, commit_as_you_go

from conftest import BehaviorBuilder, rw_system
from test_core_properties import random_simple_behavior


def judgement(verdict):
    """The engine-independent verdict triple (cycle witness excluded)."""
    return (verdict.certified, verdict.arv_violations, verdict.cycle is None)


def run(coroutine):
    return asyncio.run(coroutine)


def simple_case(seed, steps=30):
    behavior, system = random_simple_behavior(seed, steps=steps)
    return list(behavior), system


class TestConfig:
    def test_rejects_nonpositive_workers_and_queues(self):
        with pytest.raises(ValueError):
            StreamConfig(workers=0)
        with pytest.raises(ValueError):
            StreamConfig(queue_size=0)
        with pytest.raises(ValueError):
            StreamConfig(compaction_interval=0)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--interval", "0"], "compaction_interval must be at least 1"),
            (["--workers", "0"], "workers must be at least 1"),
        ],
    )
    def test_cli_reports_a_rejected_config_on_one_line(self, capsys, flags, message):
        from repro.cli import main

        assert main(["stream", "--transactions", "2", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid stream configuration: {message}\n"


class TestVerdictParity:
    def test_matches_direct_certifier(self):
        """The service is a transport, not a judge: its verdicts must be
        exactly the direct certifier's (same compaction settings)."""

        async def scenario():
            config = StreamConfig(workers=2, compaction=True, compaction_interval=4)
            service = StreamService(config)
            await service.start()
            results = {}
            try:
                for seed in range(6):
                    behavior, system = simple_case(seed)
                    session = await service.open_session(f"s{seed}", system)
                    await session.feed_all(behavior)
                    results[seed] = (await session.close(), behavior, system)
            finally:
                await service.close()
            return results

        for seed, (result, behavior, system) in run(scenario()).items():
            direct = OnlineCertifier(
                system, compaction=True, compaction_interval=4
            ).feed_all(behavior)
            assert judgement(result.verdict) == judgement(direct), seed
            assert result.actions == len(behavior)

    def test_mid_stream_verdict_reflects_fed_prefix(self):
        async def scenario():
            system = rw_system("x")
            b = BehaviorBuilder(system)
            t1 = b.begin_top("t1")
            b.write(t1, "w", "x", 7)
            b.commit(t1)
            prefix = b.build()
            t2 = b.begin_top("t2")
            b.read(t2, "r", "x", 0)  # stale: ARV violation
            b.commit(t2)
            full = b.build()
            service = StreamService(StreamConfig())
            await service.start()
            try:
                session = await service.open_session("audit", system)
                await session.feed_all(prefix)
                midway = await session.verdict()
                await session.feed_all(full[len(prefix):])
                result = await session.close()
            finally:
                await service.close()
            return midway, result

        midway, result = run(scenario())
        assert midway.certified
        assert not result.verdict.certified
        assert result.verdict.arv_violations


class TestMultiplexing:
    def test_sessions_shard_round_robin_and_interleave(self):
        async def scenario():
            registry = MetricsRegistry()
            service = StreamService(StreamConfig(workers=3), metrics=registry)
            await service.start()
            cases = [simple_case(seed) for seed in range(6)]
            try:
                sessions = [
                    await service.open_session(f"s{i}", system)
                    for i, (_, system) in enumerate(cases)
                ]
                # feed round-robin one action at a time: maximal interleave
                cursors = [0] * len(cases)
                live = True
                while live:
                    live = False
                    for i, (behavior, _) in enumerate(cases):
                        if cursors[i] < len(behavior):
                            await sessions[i].feed(behavior[cursors[i]])
                            cursors[i] += 1
                            live = True
                results = [await session.close() for session in sessions]
            finally:
                await service.close()
            return cases, results, registry.snapshot()

        cases, results, snapshot = run(scenario())
        for i, ((behavior, system), result) in enumerate(zip(cases, results)):
            direct = OnlineCertifier(
                system, compaction=True, compaction_interval=64
            ).feed_all(behavior)
            assert judgement(result.verdict) == judgement(direct), i
        counters = snapshot["counters"]
        assert counters["stream.sessions.opened"] == 6
        assert counters["stream.sessions.closed"] == 6
        assert counters["stream.actions"] == sum(
            len(behavior) for behavior, _ in cases
        )
        assert snapshot["gauges"]["stream.workers"] == 3
        assert snapshot["gauges"]["stream.sessions.open"] == 0

    def test_duplicate_session_name_rejected(self):
        async def scenario():
            service = StreamService()
            await service.start()
            try:
                await service.open_session("dup", rw_system("x"))
                with pytest.raises(ValueError):
                    await service.open_session("dup", rw_system("x"))
            finally:
                await service.close()

        run(scenario())

    def test_open_before_start_rejected(self):
        async def scenario():
            service = StreamService()
            with pytest.raises(RuntimeError):
                await service.open_session("early", rw_system("x"))

        run(scenario())


class TestBackpressure:
    def test_tiny_queue_counts_backpressure_waits(self):
        async def scenario():
            registry = MetricsRegistry()
            service = StreamService(
                StreamConfig(workers=1, queue_size=1), metrics=registry
            )
            await service.start()
            behavior, system = simple_case(3, steps=40)
            try:
                session = await service.open_session("pressed", system)
                await session.feed_all(behavior)
                await session.close()
            finally:
                await service.close()
            return registry.snapshot()

        snapshot = run(scenario())
        counters = snapshot["counters"]
        # with a one-slot queue nearly every feed finds it full
        assert counters["stream.backpressure_waits"] > 0
        # every counted wait also lands its duration in the histogram
        waits = snapshot["histograms"]["stream.backpressure.seconds"]
        assert waits["count"] == counters["stream.backpressure_waits"]
        assert waits["sum"] >= 0.0
        assert waits["p95"] is not None


class TestInbox:
    """The bounded per-worker inbox: order, bound and cancellation."""

    @pytest.mark.parametrize("instrumented", [False, True])
    @pytest.mark.parametrize("queue_size", [1, 2])
    def test_shuffled_feeds_requests_and_cancellations(self, queue_size, instrumented):
        """7 sessions on 3 workers under a seeded shuffle of feeds,
        ``verdict()`` requests and cancelled feeds (each cancelled action
        is fed again).  Every verdict equals a direct certifier's on the
        prefix fed before it, no inbox ever holds more than
        ``queue_size`` entries, and the service closes."""
        cases = [simple_case(seed, steps=40) for seed in range(7)]
        rng = random.Random(100 * queue_size + instrumented)
        registry = MetricsRegistry() if instrumented else None

        async def scenario():
            service = StreamService(
                StreamConfig(workers=3, queue_size=queue_size), metrics=registry
            )
            await service.start()
            inboxes = service._inboxes
            peak = [0]

            def held():
                peak[0] = max([peak[0]] + [len(inbox.entries) for inbox in inboxes])

            handle = service._handle

            def handle_and_check(entry):
                # the worker just took this entry from its inbox
                session = entry[0]
                if session is not None:
                    peak[0] = max(peak[0], len(inboxes[session.worker].entries) + 1)
                held()
                handle(entry)

            service._handle = handle_and_check
            sessions = [
                await service.open_session(f"s{i}", system)
                for i, (_, system) in enumerate(cases)
            ]
            cursors = [0] * len(cases)
            feeding = [None] * len(cases)
            asking = [None] * len(cases)
            asked = []  # (session index, prefix length, request task)
            cancelled = 0
            while any(
                cursors[i] < len(behavior) or feeding[i] is not None
                for i, (behavior, _) in enumerate(cases)
            ):
                i = rng.randrange(len(cases))
                behavior = cases[i][0]
                task = feeding[i]
                if asking[i] is not None and asking[i].done():
                    asking[i] = None
                if task is not None:
                    if task.done():
                        if task.cancelled():
                            cancelled += 1  # not fed: feed it again
                        else:
                            task.result()
                            cursors[i] += 1
                        feeding[i] = None
                    elif rng.random() < 0.3:
                        task.cancel()
                elif asking[i] is None and cursors[i] < len(behavior):
                    if rng.random() < 0.15:
                        # nothing of this session is in flight, and it
                        # feeds nothing more until the answer is in, so
                        # the answer reflects exactly the fed prefix
                        asking[i] = asyncio.ensure_future(sessions[i].verdict())
                        asked.append((i, cursors[i], asking[i]))
                    else:
                        feeding[i] = asyncio.ensure_future(
                            sessions[i].feed(behavior[cursors[i]])
                        )
                if rng.random() < 0.4:
                    await asyncio.sleep(0)
                held()
            answers = [(i, prefix, await task) for i, prefix, task in asked]
            results = [await session.close() for session in sessions]
            await service.close()
            return answers, results, cancelled, peak[0]

        answers, results, cancelled, peak = run(asyncio.wait_for(scenario(), 60))
        assert cancelled > 0
        assert 0 < peak <= queue_size
        assert answers
        for i, prefix, verdict in answers:
            behavior, system = cases[i]
            direct = OnlineCertifier(
                system, compaction=True, compaction_interval=64
            ).feed_all(behavior[:prefix])
            assert judgement(verdict) == judgement(direct), (i, prefix)
        for (behavior, system), result in zip(cases, results):
            direct = OnlineCertifier(
                system, compaction=True, compaction_interval=64
            ).feed_all(behavior)
            assert judgement(result.verdict) == judgement(direct), result.name
            assert result.actions == len(behavior)
        if instrumented:
            assert registry.snapshot()["counters"]["stream.backpressure_waits"] > 0

    def test_producer_cancelled_after_grant_passes_room_on(self):
        """A producer granted room and cancelled before it appends hands
        the room to the next waiting producer (as ``asyncio.Queue.put``
        does), or that producer waits forever."""
        behavior, system = simple_case(0)

        async def scenario():
            service = StreamService(StreamConfig(workers=1, queue_size=1))
            await service.start()
            session = await service.open_session("s", system)
            first = asyncio.ensure_future(session.feed(behavior[0]))
            granted = asyncio.ensure_future(session.feed(behavior[1]))
            queued = asyncio.ensure_future(session.feed(behavior[1]))
            await asyncio.sleep(0)
            # `first` filled the inbox; `granted` and `queued` wait, in order
            assert first.done() and not granted.done() and not queued.done()
            # the worker takes `first`'s entry and grants `granted` room;
            # cancel `granted` after that, before it resumes
            asyncio.get_running_loop().call_soon(granted.cancel)
            await asyncio.wait_for(queued, 5)
            assert granted.cancelled()
            await session.feed_all(behavior[2:])
            result = await session.close()
            await service.close()
            return result

        result = run(asyncio.wait_for(scenario(), 30))
        direct = OnlineCertifier(
            system, compaction=True, compaction_interval=64
        ).feed_all(behavior)
        assert judgement(result.verdict) == judgement(direct)
        assert result.actions == len(behavior)

    def test_cancelled_verdict_request_leaves_the_worker_running(self):
        """A requester that stops waiting gets no answer, and the worker
        goes on with the entries behind its request."""
        behavior, system = simple_case(1)

        async def scenario():
            service = StreamService()
            await service.start()
            session = await service.open_session("s", system)
            await session.feed_all(behavior[:5])
            asked = asyncio.ensure_future(session.verdict())
            await asyncio.sleep(0)  # the request is in the inbox
            asked.cancel()
            await session.feed_all(behavior[5:])
            result = await session.close()
            await service.close()
            return asked, result

        asked, result = run(asyncio.wait_for(scenario(), 30))
        assert asked.cancelled()
        assert result.actions == len(behavior)


class TestLatencyTelemetry:
    def test_feed_to_verdict_histogram_counts_every_action(self):
        async def scenario():
            registry = MetricsRegistry()
            service = StreamService(StreamConfig(workers=2), metrics=registry)
            await service.start()
            cases = [simple_case(seed) for seed in range(3)]
            try:
                for i, (behavior, system) in enumerate(cases):
                    session = await service.open_session(f"s{i}", system)
                    await session.feed_all(behavior)
                    await session.close()
            finally:
                await service.close()
            return cases, registry.snapshot()

        cases, snapshot = run(scenario())
        latency = snapshot["histograms"]["stream.latency.feed_to_verdict"]
        assert latency["count"] == sum(len(b) for b, _ in cases)
        assert latency["min"] > 0.0
        for key in ("p50", "p95", "p99"):
            assert latency[key] is not None
            assert latency["min"] <= latency[key] <= latency["max"]

    def test_session_registry_gets_its_own_latency_series(self):
        async def scenario():
            service_registry = MetricsRegistry()
            session_registry = MetricsRegistry()
            service = StreamService(metrics=service_registry)
            await service.start()
            behavior, system = simple_case(5)
            try:
                session = await service.open_session(
                    "own", system, metrics=session_registry
                )
                await session.feed_all(behavior)
                await session.close()
            finally:
                await service.close()
            return len(behavior), service_registry, session_registry

        fed, service_registry, session_registry = run(scenario())
        for registry in (service_registry, session_registry):
            latency = registry.snapshot()["histograms"][
                "stream.latency.feed_to_verdict"
            ]
            assert latency["count"] == fed

    def test_shared_registry_not_double_counted(self):
        """``certify_stream`` hands one registry to both the service and
        the session; each action must be observed exactly once."""
        behavior, system = simple_case(4)
        registry = MetricsRegistry()
        result = run(
            certify_stream("shared", system, behavior, metrics=registry)
        )
        latency = registry.snapshot()["histograms"][
            "stream.latency.feed_to_verdict"
        ]
        assert latency["count"] == result.actions == len(behavior)

    def test_uninstrumented_path_stamps_no_latency(self):
        """With no registry anywhere the enqueue stamp stays 0.0 — the
        zero-overhead contract (no clock reads, no histograms)."""
        behavior, system = simple_case(6)
        result = run(certify_stream("dark", system, behavior))
        direct = OnlineCertifier(
            system, compaction=True, compaction_interval=64
        ).feed_all(behavior)
        assert judgement(result.verdict) == judgement(direct)


class _BrokenSpec:
    """A spec whose state transition always fails — forces a certifier
    error inside the worker loop."""

    initial = 0

    def apply(self, state, op):
        raise RuntimeError("broken spec")

    def conflicts(self, op1, value1, op2, value2):
        return False


class TestErrorSurfacing:
    def test_certifier_error_reraised_on_close(self):
        async def scenario():
            registry = MetricsRegistry()
            service = StreamService(metrics=registry)
            await service.start()
            system = SystemType({ObjectName("x"): _BrokenSpec()})
            b = BehaviorBuilder(system)
            t = b.begin_top("t")
            b.write(t, "w", "x", 1)
            b.commit(t)  # visibility triggers spec.apply, which raises
            try:
                session = await service.open_session("broken", system)
                await session.feed_all(b.build())
                with pytest.raises(RuntimeError, match="broken spec"):
                    await session.close()
            finally:
                await service.close()
            return registry.snapshot()["counters"]

        counters = run(scenario())
        assert counters["stream.errors"] >= 1

    def test_feed_after_close_rejected(self):
        async def scenario():
            system = rw_system("x")
            b = BehaviorBuilder(system)
            t = b.begin_top("t")
            b.write(t, "w", "x", 1)
            b.commit(t)
            behavior = b.build()
            service = StreamService()
            await service.start()
            try:
                session = await service.open_session("done", system)
                await session.feed_all(behavior)
                await session.close()
                with pytest.raises(RuntimeError):
                    await session.feed(behavior[0])
            finally:
                await service.close()

        run(scenario())

    def test_verdict_and_close_after_close_rejected(self):
        async def scenario():
            service = StreamService()
            await service.start()
            try:
                session = await service.open_session("done", rw_system("x"))
                await session.close()
                with pytest.raises(RuntimeError, match="is closed"):
                    await session.verdict()
                with pytest.raises(RuntimeError, match="is closed"):
                    await session.close()
            finally:
                await service.close()

        run(scenario())

    def test_calls_after_a_requested_close_rejected(self):
        """A session closes once: as soon as ``close`` is called, a second
        ``close`` and any ``feed`` or ``verdict`` raise, while the one
        close still answers with everything fed before it."""
        behavior, system = simple_case(4)
        fed, late = behavior[:-1], behavior[-1]

        async def scenario():
            registry = MetricsRegistry()
            service = StreamService(metrics=registry)
            await service.start()
            try:
                session = await service.open_session("once", system)
                await session.feed_all(fed)
                closing = asyncio.ensure_future(session.close())
                await asyncio.sleep(0)  # the close request is on its way
                calls = (lambda: session.feed(late), session.verdict, session.close)
                for call in calls:
                    with pytest.raises(RuntimeError, match="is closed"):
                        await call()
                results = await asyncio.gather(
                    closing, session.close(), return_exceptions=True
                )
            finally:
                await service.close()
            return results, registry.snapshot()["counters"]

        (result, second), counters = run(scenario())
        assert isinstance(result, SessionResult)
        assert isinstance(second, RuntimeError)
        assert result.actions == len(fed) == counters["stream.actions"]
        direct = OnlineCertifier(
            system, compaction=True, compaction_interval=64
        ).feed_all(fed)
        assert judgement(result.verdict) == judgement(direct)
        assert counters["stream.sessions.opened"] == 1
        assert counters["stream.sessions.closed"] == 1


class TestCertifyStreamHelper:
    def test_sync_iterable(self):
        behavior, system = simple_case(1)
        result = run(certify_stream("oneshot", system, behavior))
        assert isinstance(result, SessionResult)
        direct = OnlineCertifier(
            system, compaction=True, compaction_interval=64
        ).feed_all(behavior)
        assert judgement(result.verdict) == judgement(direct)

    def test_async_iterator(self):
        behavior, system = simple_case(2)

        async def produce():
            for action in behavior:
                await asyncio.sleep(0)
                yield action

        result = run(certify_stream("async-oneshot", system, produce()))
        assert result.actions == len(behavior)

    def test_commit_as_you_go_stream_stays_bounded(self):
        """End-to-end: the workload generator through the service, with
        the compaction stats proving eviction actually ran."""
        workload = StreamWorkload(top_level=80, window=6, seed=3)
        system, actions = commit_as_you_go(workload)
        config = StreamConfig(compaction=True, compaction_interval=16)
        result = run(certify_stream("e2e", system, actions, config=config))
        assert result.actions == workload.event_estimate()
        assert result.compaction_stats["evicted_rows"] > 0
        assert result.compaction_stats["evicted_subtrees"] > 0
        assert result.compaction_stats["live_tracked_ops"] <= 8 * workload.window
