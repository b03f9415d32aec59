"""A long-lived asyncio certification service over online certifiers.

:class:`StreamService` turns the per-instance
:class:`repro.core.online.OnlineCertifier` into a *feed API*: clients
open named sessions, push serial actions through bounded queues, and
read back verdicts whenever they like.  Many concurrent sessions are
multiplexed over a small set of certifier **workers** — each session is
pinned to one worker (round-robin, the same sharding idiom as
:func:`repro.parallel.certify_corpus`), so one session's actions are
always consumed in feed order while independent sessions interleave
freely.

The workers are cooperative asyncio tasks in one process: the service
provides *fairness and backpressure* across sessions, not CPU
parallelism (use :mod:`repro.parallel` to fan complete corpora out over
processes).  Each worker owns one bounded :class:`asyncio.Queue`; when
a producer outruns certification the queue fills and ``feed`` suspends
— counted in ``stream.backpressure_waits`` — until the worker drains.
That bound, together with ``compaction=True`` certifiers (the default
here), keeps the whole service's memory proportional to the live
windows of its sessions rather than their history.

Observability: the service-level registry (``metrics``) carries the
``stream.*`` counters/gauges; each session may additionally bring its
own :class:`repro.obs.MetricsRegistry`, which is handed to its
certifier and fills with the per-session ``online.*`` series (including
``online.compaction.*``).  With either registry attached, every fed
action is stamped at enqueue and its feed→verdict latency — queue wait
plus certification — lands in a ``stream.latency.feed_to_verdict``
log-bucket histogram (p50/p95/p99 in the snapshot) at service and
session level, and the time a full queue blocked the producer feeds the
``stream.backpressure.seconds`` histogram next to the existing wait
counter.  A session opened with a
:class:`repro.obs.flight.FlightRecorder` gets post-mortem dumps (recent
action window, metrics snapshot, cycle witness) when its verdict
degrades.  With no registry anywhere, none of the clocks are read.

All coroutine methods must run on the event loop that ``start`` ran on.
A minimal session::

    service = StreamService(StreamConfig(workers=2))
    await service.start()
    session = await service.open_session("audit-1", system_type)
    for action in behavior:
        await session.feed(action)
    result = await session.close()   # final verdict + compaction stats
    await service.close()
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import AsyncIterator, Dict, Iterable, List, Optional, Union

from ..core.actions import Action
from ..core.history import ConflictCache
from ..core.names import SystemType
from ..core.online import OnlineCertifier, OnlineVerdict
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry
from ..obs.quantiles import latency_histogram

__all__ = [
    "StreamConfig",
    "SessionResult",
    "SessionHandle",
    "StreamService",
    "certify_stream",
]


@dataclass(frozen=True)
class StreamConfig:
    """Tuning knobs for a :class:`StreamService`.

    ``queue_size`` bounds each worker's inbox (the backpressure point);
    ``workers`` sets the number of certifier workers sessions are
    sharded over.  The remaining fields configure every session's
    :class:`repro.core.online.OnlineCertifier` — compaction is on by
    default because a long-lived service is exactly the bounded-memory
    deployment it exists for.
    """

    workers: int = 1
    queue_size: int = 256
    compaction: bool = True
    compaction_interval: int = 64

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.queue_size < 1:
            raise ValueError("queue_size must be at least 1")
        if self.compaction_interval < 1:
            raise ValueError("compaction_interval must be at least 1")


@dataclass(frozen=True)
class SessionResult:
    """The final judgement of one closed session."""

    name: str
    verdict: OnlineVerdict
    actions: int
    compaction_stats: Dict[str, int]


@dataclass
class _Session:
    """Internal per-session state owned by exactly one worker."""

    name: str
    certifier: OnlineCertifier
    worker: int
    metrics: Optional[MetricsRegistry] = None
    actions: int = 0
    closed: bool = False
    error: Optional[BaseException] = None


@dataclass
class _Item:
    """One worker-queue entry: a feed (``action`` set) or a round-trip
    request (``reply`` set; ``close`` distinguishes verdict vs close).

    ``enqueued`` is the ``perf_counter`` stamp taken as the feed entered
    the queue — 0.0 when latency measurement is off (no registry), so
    the uninstrumented path never reads a clock."""

    session: _Session
    action: Optional[Action] = None
    reply: Optional["asyncio.Future[object]"] = None
    close: bool = False
    enqueued: float = 0.0


class SessionHandle:
    """A client's handle to one open session (created by ``open_session``).

    ``feed`` enqueues fire-and-forget — per-session FIFO order is
    guaranteed by the single worker queue — while ``verdict`` and
    ``close`` round-trip through the worker so the answer reflects every
    previously fed action.  A certifier error (e.g. an unregistered
    access) is captured by the worker and re-raised from the next
    ``verdict``/``close`` call; later ``feed`` calls become no-ops.
    """

    def __init__(self, service: "StreamService", session: _Session) -> None:
        self._service = service
        self._session = session

    @property
    def name(self) -> str:
        """The session name given to ``open_session``."""
        return self._session.name

    async def feed(self, action: Action) -> None:
        """Enqueue one action for certification (suspends when full)."""
        await self._service._enqueue(_Item(self._session, action=action))

    async def feed_all(self, actions: Iterable[Action]) -> None:
        """Enqueue a whole action iterable, in order."""
        for action in actions:
            await self._service._enqueue(_Item(self._session, action=action))

    async def verdict(self) -> OnlineVerdict:
        """The verdict after everything fed so far (round-trips the worker)."""
        result = await self._service._request(self._session, close=False)
        assert isinstance(result, OnlineVerdict)
        return result

    async def close(self) -> SessionResult:
        """Drain, close the session and return its final result."""
        result = await self._service._request(self._session, close=True)
        assert isinstance(result, SessionResult)
        return result


class StreamService:
    """The long-lived feed service; see the module docstring for usage."""

    def __init__(
        self,
        config: Optional[StreamConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config if config is not None else StreamConfig()
        self.metrics = metrics
        self._queues: List["asyncio.Queue[_Item]"] = []
        self._workers: List["asyncio.Task[None]"] = []
        self._sessions: Dict[str, _Session] = {}
        self._next_worker = 0
        self._started = False

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        self._queues = [
            asyncio.Queue(maxsize=self.config.queue_size)
            for _ in range(self.config.workers)
        ]
        self._workers = [
            asyncio.create_task(self._run_worker(index))
            for index in range(self.config.workers)
        ]
        if self.metrics is not None:
            self.metrics.set_gauge("stream.workers", self.config.workers)

    async def close(self) -> None:
        """Stop every worker after the queues drain (open sessions stay
        un-finalised; close them first for their results)."""
        if not self._started:
            return
        for queue in self._queues:
            await queue.join()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._started = False
        self._workers = []
        self._queues = []

    async def open_session(
        self,
        name: str,
        system_type: SystemType,
        metrics: Optional[MetricsRegistry] = None,
        conflict_cache: Optional[ConflictCache] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> SessionHandle:
        """Open a named session and pin it to a worker (round-robin).

        ``metrics`` (optional) is the per-session registry handed to the
        session's certifier; ``conflict_cache`` may be shared across
        sessions auditing the same object specifications; ``flight``
        (optional) attaches a violation flight recorder to the session's
        certifier (see :mod:`repro.obs.flight`).
        """
        if not self._started:
            raise RuntimeError("service not started")
        if name in self._sessions:
            raise ValueError(f"session {name!r} already open")
        certifier = OnlineCertifier(
            system_type,
            metrics=metrics,
            conflict_cache=conflict_cache,
            compaction=self.config.compaction,
            compaction_interval=self.config.compaction_interval,
            flight=flight,
            session=name,
        )
        session = _Session(name, certifier, self._next_worker, metrics=metrics)
        self._next_worker = (self._next_worker + 1) % self.config.workers
        self._sessions[name] = session
        if self.metrics is not None:
            self.metrics.inc("stream.sessions.opened")
            self.metrics.set_gauge("stream.sessions.open", len(self._sessions))
        return SessionHandle(self, session)

    def live_tracked_ops(self) -> int:
        """Total tracked operations retained across all open sessions."""
        return sum(
            session.certifier.live_tracked_ops()
            for session in self._sessions.values()
        )

    # -- internal ----------------------------------------------------------

    async def _enqueue(self, item: _Item) -> None:
        if item.session.closed:
            raise RuntimeError(f"session {item.session.name!r} is closed")
        queue = self._queues[item.session.worker]
        if self.metrics is None and item.session.metrics is None:
            # fully uninstrumented: no clock reads on this path
            await queue.put(item)
            return
        if item.action is not None:
            item.enqueued = time.perf_counter()
        if self.metrics is not None and queue.full():
            self.metrics.inc("stream.backpressure_waits")
            blocked = time.perf_counter()
            await queue.put(item)
            latency_histogram(self.metrics, "stream.backpressure.seconds").observe(
                time.perf_counter() - blocked
            )
            return
        await queue.put(item)

    async def _request(self, session: _Session, close: bool) -> object:
        loop = asyncio.get_running_loop()
        reply: "asyncio.Future[object]" = loop.create_future()
        await self._enqueue(_Item(session, reply=reply, close=close))
        return await reply

    async def _run_worker(self, index: int) -> None:
        queue = self._queues[index]
        while True:
            item = await queue.get()
            try:
                self._handle(item)
            finally:
                queue.task_done()

    def _handle(self, item: _Item) -> None:
        session = item.session
        if item.reply is None:
            # plain feed
            if session.error is not None:
                return
            try:
                session.certifier.feed(item.action)  # type: ignore[arg-type]
                session.actions += 1
                if self.metrics is not None:
                    self.metrics.inc("stream.actions")
                if item.enqueued:
                    # queue wait + certification, the client-visible lag
                    elapsed = time.perf_counter() - item.enqueued
                    if self.metrics is not None:
                        latency_histogram(
                            self.metrics, "stream.latency.feed_to_verdict"
                        ).observe(elapsed)
                    if session.metrics is not None and session.metrics is not self.metrics:
                        latency_histogram(
                            session.metrics, "stream.latency.feed_to_verdict"
                        ).observe(elapsed)
            except BaseException as exc:  # surfaced on next verdict/close
                session.error = exc
                if self.metrics is not None:
                    self.metrics.inc("stream.errors")
            return
        if session.error is not None:
            item.reply.set_exception(session.error)
            if item.close:
                self._finalize(session)
            return
        if not item.close:
            item.reply.set_result(session.certifier.verdict())
            return
        result = SessionResult(
            session.name,
            session.certifier.verdict(),
            session.actions,
            session.certifier.compaction_stats(),
        )
        self._finalize(session)
        item.reply.set_result(result)

    def _finalize(self, session: _Session) -> None:
        session.closed = True
        self._sessions.pop(session.name, None)
        if self.metrics is not None:
            self.metrics.inc("stream.sessions.closed")
            self.metrics.set_gauge("stream.sessions.open", len(self._sessions))


async def certify_stream(
    name: str,
    system_type: SystemType,
    actions: Union[AsyncIterator[Action], Iterable[Action]],
    config: Optional[StreamConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    flight: Optional[FlightRecorder] = None,
) -> SessionResult:
    """One-shot convenience: run a whole stream through a private service.

    Accepts either a plain iterable or an async iterator of actions;
    returns the closed session's :class:`SessionResult`.  ``metrics``
    doubles as the session registry here (one session, one registry);
    ``flight`` attaches a violation flight recorder to the session.
    """
    service = StreamService(config, metrics=metrics)
    await service.start()
    try:
        session = await service.open_session(
            name, system_type, metrics=metrics, flight=flight
        )
        if hasattr(actions, "__aiter__"):
            async for action in actions:  # type: ignore[union-attr]
                await session.feed(action)
        else:
            await session.feed_all(actions)  # type: ignore[arg-type]
        return await session.close()
    finally:
        await service.close()
