"""The ``stream`` workload: the ``repro stream`` path.

Two clients on ``StreamService(StreamConfig(workers=2))`` with
compaction on, each feeding a serializable interleaved stream (see
:mod:`serializable`), so that cycle checking stays live on every edge.
A client replays its stream, one session per replay, until its phase
ends.  Two phases:

1. an open loop offering :data:`OPEN_RATE` events/s in total: about
   half of the 12-14k events/s that serializable streams sustained in
   a plain feed loop, but only about 0.29 of this workload's own
   closed-loop saturation (about 21k scaled events/s on the machine it
   was tuned on), so ``lag_p50_ms`` is a light-load latency.  Each
   action is due at a fixed time; each session asks for a verdict
   after every :data:`VERDICT_EVERY` fed actions without waiting for
   it, and the lag of a verdict is the time its reply arrives minus the
   due time of the last action fed before the request.
2. a closed loop in which both clients feed as fast as backpressure
   allows, for the saturation throughput: the median over windows of
   :data:`WINDOW_S` seconds, so that a burst of load from outside the
   process moves a few windows and not the result.

``core.online`` and the service's queues do all of the work; batch
certification and the simulator do none.
"""

from __future__ import annotations

import asyncio
import bisect
import collections.abc
import contextlib
import itertools
import selectors
import time
import unittest.mock
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.actions import Action
from repro.core.names import SystemType
from repro.core.online import OnlineCertifier
from repro.obs.metrics import MetricsRegistry
from repro.stream import StreamConfig, StreamService, StreamWorkload
from repro.stream.service import SessionHandle

from measure import Digest, SpanRecorder, median, percentile, probe, scale
from serializable import serializable_stream

SESSIONS = 2
WORKERS = 2
#: offered load of the open loop, events/s over both sessions
OPEN_RATE = 6_000
VERDICT_EVERY = 24
#: share of the run given to the open loop; the closed loop gets the rest
OPEN_SHARE = 0.4
#: top-level transactions per stream (24 events each).  A client replays
#: its stream, one session per replay, until its phase ends, so the
#: input stays small however fast the service gets.
STREAM_TOP_LEVEL = 500
#: the closed loop's throughput is the median over windows this long
WINDOW_S = 0.25

FEED = "core.online.feed"
VERDICT = "core.online.verdict"
HANDLE = "stream.service.handle"
WORKER = "stream.service.worker"
API = "stream.service.session_api"
CLIENT = "stream.client"
IDLE = "stream.idle"

Stream = Tuple[SystemType, List[Action]]


@dataclass
class Inputs:
    open_streams: List[Stream]
    closed_streams: List[Stream]


def _streams(seed: int, salt: int) -> List[Stream]:
    return [
        serializable_stream(
            StreamWorkload(top_level=STREAM_TOP_LEVEL, seed=seed * 1000 + salt + session)
        )
        for session in range(SESSIONS)
    ]


def build(seed: int) -> Inputs:
    return Inputs(open_streams=_streams(seed, 0), closed_streams=_streams(seed, 500))


def digest(inputs: Inputs) -> Digest:
    result = Digest()
    for _, actions in inputs.open_streams + inputs.closed_streams:
        result.add(repr(actions), len(actions))
    return result


@dataclass
class _Tally:
    """What one pass of the workload counts and checks."""

    recorder: Optional[SpanRecorder]
    failures: List[str] = field(default_factory=list)
    failed_sessions: Set[str] = field(default_factory=set)
    sessions: int = 0
    sweeps: int = 0
    edges: int = 0
    live_ops_peak: int = 0
    feed_block_s: float = 0.0
    #: events fed so far, over both phases
    fed: int = 0
    #: (probe start, probe end, events fed at the probe, probe seconds)
    marks: List[Tuple[float, float, int, float]] = field(default_factory=list)

    def registry(self) -> Optional[MetricsRegistry]:
        return MetricsRegistry() if self.recorder is not None else None

    async def close(
        self, session: Any, fed: int, registry: Optional[MetricsRegistry]
    ) -> None:
        """Close one session and check its result."""
        self.sessions += 1
        name = session.name
        try:
            result = await session.close()
        except Exception as exc:  # a session error, re-raised by the service
            self.fail(name, f"session error: {exc!r}")
            return
        verdict = result.verdict
        if not verdict.certified:
            self.fail(
                name,
                f"not certified (cycle={verdict.cycle is not None}, "
                f"{len(verdict.arv_violations)} ARV violations)",
            )
        if result.actions != fed:
            self.fail(name, f"certified {result.actions} of {fed} actions")
        self.sweeps += result.compaction_stats["sweeps"]
        if registry is not None:
            counters = registry.snapshot()["counters"]
            self.edges += counters.get("online.edges.conflict", 0)
            self.edges += counters.get("online.edges.precedes", 0)

    def fail(self, name: str, problem: str) -> None:
        self.failed_sessions.add(name)
        self.failures.append(f"{name}: {problem}")

    async def feed(self, session: Any, action: Action) -> None:
        """Feed one action; when traced, add the time the call took
        (nearly all of it waiting on a full queue) to ``feed_block_s``."""
        self.fed += 1
        if self.recorder is None:
            await session.feed(action)
            return
        started = time.perf_counter()
        await session.feed(action)
        self.feed_block_s += time.perf_counter() - started

    def sample(self) -> None:
        """Probe the machine's speed (blocking the loop for one probe)."""
        start = time.perf_counter()
        seconds = probe()
        self.marks.append((start, time.perf_counter(), self.fed, seconds))

    async def sample_every_window(self) -> None:
        while True:
            await asyncio.sleep(WINDOW_S)
            self.sample()

    def scale_at(self, moment: float) -> float:
        """The speed factor of the window holding ``moment``."""
        index = bisect.bisect(self.marks, (moment,))
        window = self.marks[max(0, index - 1) : index + 1]
        return scale(*(mark[3] for mark in window))

    def window_rates(self, start: float, end: float) -> List[float]:
        """Scaled events per second fed between consecutive probes in
        ``[start, end]``."""
        inside = [mark for mark in self.marks if start <= mark[0] <= end]
        return [
            (later[2] - earlier[2]) / (later[0] - earlier[1]) / scale(earlier[3], later[3])
            for earlier, later in zip(inside, inside[1:])
        ]

    def sample_live(self, service: StreamService) -> None:
        if self.recorder is not None:
            self.live_ops_peak = max(self.live_ops_peak, service.live_tracked_ops())


async def _open_loop(
    service: StreamService, streams: List[Stream], seconds: float, tally: _Tally
) -> Dict[str, Any]:
    """Feed every action at its due time; ask for verdicts without waiting."""
    interval = SESSIONS / OPEN_RATE
    start = time.perf_counter() + 0.01
    end = start + seconds
    #: (reply time, lag) of every verdict
    lags: List[Tuple[float, float]] = []
    late = [0.0]
    fed_before = tally.fed

    async def ask(session: Any, due: float) -> None:
        try:
            verdict = await session.verdict()
        except Exception as exc:  # a session error, re-raised by the service
            tally.fail(session.name, f"session error: {exc!r}")
            return
        replied = time.perf_counter()
        lags.append((replied, replied - due))
        if not verdict.certified:
            tally.fail(session.name, "verdict not certified mid-stream")

    async def client(index: int, system_type: SystemType, actions: List[Action]) -> None:
        # the two clients' schedules are offset by half an interval
        offset = start + index * interval / SESSIONS
        fed = 0
        for replay in itertools.count():
            name = f"open-{index}-{replay}"
            registry = tally.registry()
            session = await service.open_session(name, system_type, metrics=registry)
            requests = []
            count = 0
            for action in actions:
                due = offset + fed * interval
                if due >= end:
                    break
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                late[0] = max(late[0], time.perf_counter() - due)
                await tally.feed(session, action)
                fed += 1
                count += 1
                if count % VERDICT_EVERY == 0:
                    tally.sample_live(service)
                    requests.append(asyncio.ensure_future(ask(session, due)))
            for request in requests:
                await request
            await tally.close(session, count, registry)
            if count < len(actions):
                break

    await asyncio.gather(
        *(client(i, st, actions) for i, (st, actions) in enumerate(streams))
    )
    return {"lags": lags, "late": late[0], "fed": tally.fed - fed_before}


async def _closed_loop(
    service: StreamService, streams: List[Stream], seconds: float, tally: _Tally
) -> Dict[str, float]:
    """Feed as fast as backpressure allows until ``seconds`` have passed."""
    start = time.perf_counter()
    end = start + seconds
    fed_before = tally.fed

    async def client(index: int, system_type: SystemType, actions: List[Action]) -> None:
        for replay in itertools.count():
            name = f"closed-{index}-{replay}"
            registry = tally.registry()
            session = await service.open_session(name, system_type, metrics=registry)
            count = 0
            for action in actions:
                if count % VERDICT_EVERY == 0:
                    if time.perf_counter() >= end:
                        break
                    tally.sample_live(service)
                await tally.feed(session, action)
                count += 1
            await tally.close(session, count, registry)
            if count < len(actions):
                break

    await asyncio.gather(
        *(client(i, st, actions) for i, (st, actions) in enumerate(streams))
    )
    return {"start": start, "end": time.perf_counter(), "fed": tally.fed - fed_before}


async def _run(inputs: Inputs, seconds: float, tally: _Tally) -> Dict[str, Any]:
    service = StreamService(StreamConfig(workers=WORKERS))
    await service.start()
    tally.sample()
    sampler = asyncio.ensure_future(tally.sample_every_window())
    try:
        open_s = seconds * OPEN_SHARE
        opened = await _open_loop(service, inputs.open_streams, open_s, tally)
        closed = await _closed_loop(
            service, inputs.closed_streams, seconds - open_s, tally
        )
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
        await service.close()
    tally.sample()
    return {"open": opened, "closed": closed}


class _TimedSelector(selectors.DefaultSelector):  # type: ignore[misc,valid-type]
    """The event loop's selector, with its waits recorded as idle time."""

    def __init__(self, recorder: SpanRecorder) -> None:
        super().__init__()
        self._recorder = recorder

    def select(self, timeout: Optional[float] = None) -> Any:
        with self._recorder.span(IDLE):
            return super().select(timeout)


class _TimedCoroutine(collections.abc.Coroutine):  # type: ignore[type-arg]
    """A coroutine whose every resumption is one span.

    A span must not stay open across an ``await``, or the spans of
    interleaved tasks stop nesting.  Timing each ``send``/``throw``
    instead times exactly the stretches in which the coroutine runs, and
    an awaited ``_TimedCoroutine`` is resumed from inside its awaiter's
    resumption, so its spans nest as children of the awaiter's.
    """

    def __init__(self, coroutine: Any, recorder: SpanRecorder, name: str) -> None:
        self._coroutine = coroutine
        self._recorder = recorder
        self._name = name

    def send(self, value: Any) -> Any:
        self._recorder.enter(self._name)
        try:
            return self._coroutine.send(value)
        finally:
            self._recorder.exit()

    def throw(self, *args: Any) -> Any:
        self._recorder.enter(self._name)
        try:
            return self._coroutine.throw(*args)
        finally:
            self._recorder.exit()

    def close(self) -> None:
        self._coroutine.close()

    def __await__(self) -> Any:
        return self

    def __iter__(self) -> Any:
        return self

    def __next__(self) -> Any:
        return self.send(None)


def _traced_loop(recorder: SpanRecorder) -> asyncio.AbstractEventLoop:
    """An event loop whose selector waits are idle time and whose task
    steps are spans: the service's workers, or the benchmark's clients."""
    loop = asyncio.SelectorEventLoop(_TimedSelector(recorder))

    def task(loop: asyncio.AbstractEventLoop, coroutine: Any, **kwargs: Any) -> Any:
        name = WORKER if coroutine.__qualname__.endswith("_run_worker") else CLIENT
        return asyncio.Task(_TimedCoroutine(coroutine, recorder, name), loop=loop, **kwargs)

    loop.set_task_factory(task)
    return loop


def _timed_api(recorder: SpanRecorder, method: Any) -> Any:
    def call(*args: Any, **kwargs: Any) -> Any:
        return _TimedCoroutine(method(*args, **kwargs), recorder, API)

    return call


def measure(
    inputs: Inputs, seconds: float, recorder: Optional[SpanRecorder]
) -> Dict[str, Any]:
    """Run the open loop, then the closed loop, for ``seconds`` in total."""
    tally = _Tally(recorder)
    if recorder is None:
        loop = asyncio.SelectorEventLoop()
    else:
        loop = _traced_loop(recorder)
    start = time.perf_counter()
    try:
        if recorder is None:
            result = loop.run_until_complete(_run(inputs, seconds, tally))
        else:
            wrapped = [
                (OnlineCertifier, "feed", recorder.wrap(OnlineCertifier.feed, FEED)),
                (OnlineCertifier, "verdict",
                 recorder.wrap(OnlineCertifier.verdict, VERDICT)),
                # the worker's handler of one queued item: private, but the
                # one call that separates the service's own work per item
                (StreamService, "_handle", recorder.wrap(StreamService._handle, HANDLE)),
            ] + [
                (SessionHandle, method, _timed_api(recorder, getattr(SessionHandle, method)))
                for method in ("feed", "verdict", "close")
            ]
            with contextlib.ExitStack() as stack:
                for owner, attribute, replacement in wrapped:
                    stack.enter_context(
                        unittest.mock.patch.object(owner, attribute, replacement)
                    )
                result = loop.run_until_complete(_run(inputs, seconds, tally))
    finally:
        loop.close()
    wall = time.perf_counter() - start
    raw_lags = [lag for _, lag in result["open"]["lags"]]
    lags = [lag * tally.scale_at(moment) for moment, lag in result["open"]["lags"]]
    closed = result["closed"]
    windows = tally.window_rates(closed["start"], closed["end"])
    rate = median(windows)
    return {
        "attempted": tally.sessions,
        "failed": len(tally.failed_sessions),
        "failures": tally.failures,
        "wall_s": wall,
        "events_per_s": rate,
        "report": {
            "events_per_s": (rate, "events/s"),
            "lag_p50_ms": (median(lags) * 1e3, "ms"),
            "lag_samples": (len(lags), "count"),
            "open.events_fed": (result["open"]["fed"], "events"),
            "closed.events_fed": (closed["fed"], "events"),
            "closed.windows": (len(windows), "count"),
            "raw.events_per_s": (closed["fed"] / (closed["end"] - closed["start"]), "events/s"),
            "raw.lag_p50_ms": (median(raw_lags) * 1e3, "ms"),
            "machine.speed": (median([scale(mark[3]) for mark in tally.marks]), "ratio"),
        },
        "lags": lags,
        "late_s": result["open"]["late"],
        "tally": tally,
        "digest": digest(inputs),
    }


def layer_metrics(
    outcome: Dict[str, Any], recorder: SpanRecorder, untraced: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-layer numbers of a traced ``measure`` call."""
    tally: _Tally = outcome["tally"]
    feeds = recorder.samples.get(FEED, [])
    return {
        "core.online.feed_s": recorder.seconds(FEED),
        "core.online.feed_p50_us": median(feeds) * 1e6,
        "core.online.feed_p99_us": percentile(feeds, 0.99) * 1e6,
        "core.online.verdict_s": recorder.seconds(VERDICT),
        "core.online.edges": tally.edges,
        "core.online.sweeps": tally.sweeps,
        "core.online.live_ops_peak": tally.live_ops_peak,
        "stream.service.self_s": recorder.self_seconds(WORKER, HANDLE, API),
        "stream.client_s": recorder.self_seconds(CLIENT),
        "stream.service.feed_block_s": tally.feed_block_s,
        "stream.lag_p99_ms": percentile(outcome["lags"], 0.99) * 1e3,
        "stream.lag_samples": len(outcome["lags"]),
        "stream.gen_late_max_ms": outcome["late_s"] * 1e3,
        "stream.idle_s": recorder.seconds(IDLE),
    }
