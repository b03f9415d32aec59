"""A long-lived asyncio certification service over online certifiers.

:class:`StreamService` turns the per-instance
:class:`repro.core.online.OnlineCertifier` into a *feed API*: clients
open named sessions, push serial actions through bounded inboxes, and
read back verdicts whenever they like.  Many concurrent sessions are
multiplexed over a small set of certifier **workers** — each session is
pinned to one worker (round-robin, the same sharding idiom as
:func:`repro.parallel.certify_corpus`), so one session's actions are
always consumed in feed order while independent sessions interleave
freely.

The workers are cooperative asyncio tasks in one process: the service
provides *fairness and backpressure* across sessions, not CPU
parallelism (use :mod:`repro.parallel` to fan complete corpora out over
processes).  Each worker owns one bounded inbox: a ``deque`` of plain
tuples that ``feed`` appends to in place, one future the idle worker
waits on, and a FIFO of futures for producers waiting for room.  When a
producer outruns certification the inbox fills and ``feed`` suspends —
counted in ``stream.backpressure_waits`` — until the worker drains; a
producer that finds others waiting queues behind them.  That bound,
together with ``compaction=True`` certifiers (the default here), keeps
the whole service's memory proportional to the live windows of its
sessions rather than their history.

Observability: the service-level registry (``metrics``) carries the
``stream.*`` counters/gauges; each session may additionally bring its
own :class:`repro.obs.metrics.MetricsRegistry`, which is handed to its
certifier and fills with the per-session ``online.*`` series (including
``online.compaction.*``).  With either registry attached, every fed
action is stamped as it is fed and its feed→verdict latency — inbox
wait plus certification — lands in a ``stream.latency.feed_to_verdict``
log-bucket histogram (p50/p95/p99 in the snapshot) at service and
session level, and the time a full inbox blocked the producer feeds the
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
from collections import deque
from dataclasses import dataclass
from typing import Any, AsyncIterator, Deque, Dict, Iterable, List, Optional, Tuple, Union

from ..core.actions import Action
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
    """Internal per-session state owned by exactly one worker.

    ``timed`` is set when the service or the session has a registry:
    only then are feeds stamped and counted.  ``closed`` is set as soon
    as a client asks to close the session, so no call follows that
    request; the worker answers it with everything fed before."""

    name: str
    certifier: OnlineCertifier
    worker: int
    metrics: Optional[MetricsRegistry] = None
    timed: bool = False
    actions: int = 0
    closed: bool = False
    error: Optional[BaseException] = None


#: An inbox entry, a plain tuple: a feed ``(session, action, enqueued)``,
#: whose ``enqueued`` is the ``perf_counter`` stamp taken as it was fed
#: (0.0 when the session is not timed, so that path reads no clock), or a
#: request ``(session, None, reply, close)``, whose ``reply`` future the
#: worker answers with the session's verdict, or with its final result
#: when ``close`` is set.  ``StreamService.close`` drains each inbox with
#: a request whose session is None.
_Entry = Tuple[Any, ...]


class _Inbox:
    """One worker's bounded FIFO of entries.

    A producer appends in place while the inbox has room; otherwise it
    waits in ``putters`` until the worker, taking an entry, grants the
    room to the oldest waiting producer.  Room is granted the moment it
    frees up, so a producer finds room only when none waits for it: no
    feed overtakes a waiting producer.  ``granted`` counts producers
    granted room that have not yet resumed to append; their room stays
    reserved (a later feed may take only the room beyond it), so
    ``len(entries) + granted`` never exceeds ``size``.  ``waiter`` is
    the future the worker waits on while the inbox is empty.
    """

    __slots__ = ("entries", "size", "putters", "granted", "waiter")

    def __init__(self, size: int) -> None:
        self.entries: Deque[_Entry] = deque()
        self.size = size
        self.putters: Deque["asyncio.Future[None]"] = deque()
        self.granted = 0
        self.waiter: Optional["asyncio.Future[None]"] = None

    def has_room(self) -> bool:
        """Whether an entry may be appended now, without waiting."""
        return len(self.entries) + self.granted < self.size

    def append(self, entry: _Entry) -> None:
        """Append ``entry`` (the caller checked for room) and wake the
        worker if it waits."""
        self.entries.append(entry)
        waiter = self.waiter
        if waiter is not None:
            self.waiter = None
            if not waiter.done():  # not a cancelled worker's
                waiter.set_result(None)

    def grant(self) -> None:
        """Grant room to waiting producers, oldest first, while it lasts."""
        putters = self.putters
        while putters and self.has_room():
            putter = putters.popleft()
            if not putter.done():
                putter.set_result(None)
                self.granted += 1

    async def put(self, entry: _Entry) -> None:
        """Append ``entry``; with no room left, first wait for it behind
        the producers already waiting."""
        if self.has_room():
            self.append(entry)
            return
        putter = asyncio.get_running_loop().create_future()
        self.putters.append(putter)
        try:
            await putter
        except BaseException:
            if putter.done() and not putter.cancelled():
                # granted room it will not take: pass it on, as
                # asyncio.Queue.put does
                self.granted -= 1
                self.grant()
            else:
                putter.cancel()
                if putter in self.putters:
                    self.putters.remove(putter)
            raise
        self.granted -= 1
        self.append(entry)

    async def wait(self) -> None:
        """Suspend until an entry is appended (the idle worker's wait)."""
        self.waiter = asyncio.get_running_loop().create_future()
        try:
            await self.waiter
        finally:
            self.waiter = None


class SessionHandle:
    """A client's handle to one open session (created by ``open_session``).

    ``feed`` enqueues fire-and-forget — per-session FIFO order is
    guaranteed by the single worker inbox — while ``verdict`` and
    ``close`` round-trip through the worker so the answer reflects every
    previously fed action.  A certifier error (e.g. an unregistered
    access) is captured by the worker and re-raised from the next
    ``verdict``/``close`` call; later ``feed`` calls become no-ops.
    Once ``close`` has been called, every later call (a second ``close``
    included) raises :class:`RuntimeError`.
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
        session = self._session
        if session.closed:
            raise RuntimeError(f"session {session.name!r} is closed")
        inbox = self._service._inboxes[session.worker]
        entry = (session, action, time.perf_counter() if session.timed else 0.0)
        if inbox.has_room():
            inbox.append(entry)
        else:
            await self._service._put(inbox, entry)

    async def feed_all(self, actions: Iterable[Action]) -> None:
        """Enqueue a whole action iterable, in order."""
        for action in actions:
            await self.feed(action)

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
        self._inboxes: List[_Inbox] = []
        self._workers: List["asyncio.Task[None]"] = []
        self._sessions: Dict[str, _Session] = {}
        self._next_worker = 0
        self._started = False

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        self._inboxes = [
            _Inbox(self.config.queue_size) for _ in range(self.config.workers)
        ]
        self._workers = [
            asyncio.create_task(self._run_worker(index))
            for index in range(self.config.workers)
        ]
        if self.metrics is not None:
            self.metrics.set_gauge("stream.workers", self.config.workers)

    async def close(self) -> None:
        """Stop every worker after its inbox drains (open sessions stay
        un-finalised; close them first for their results)."""
        if not self._started:
            return
        loop = asyncio.get_running_loop()
        for inbox in self._inboxes:
            drained: "asyncio.Future[object]" = loop.create_future()
            await self._put(inbox, (None, None, drained, False))
            await drained
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._started = False
        self._workers = []
        self._inboxes = []

    async def open_session(
        self,
        name: str,
        system_type: SystemType,
        metrics: Optional[MetricsRegistry] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> SessionHandle:
        """Open a named session and pin it to a worker (round-robin).

        ``metrics`` (optional) is the per-session registry handed to the
        session's certifier; ``flight`` (optional) attaches a violation
        flight recorder to the session's certifier (see
        :mod:`repro.obs.flight`).
        """
        if not self._started:
            raise RuntimeError("service not started")
        if name in self._sessions:
            raise ValueError(f"session {name!r} already open")
        certifier = OnlineCertifier(
            system_type,
            metrics=metrics,
            compaction=self.config.compaction,
            compaction_interval=self.config.compaction_interval,
            flight=flight,
            session=name,
        )
        session = _Session(
            name,
            certifier,
            self._next_worker,
            metrics=metrics,
            timed=self.metrics is not None or metrics is not None,
        )
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

    async def _put(self, inbox: _Inbox, entry: _Entry) -> None:
        """``inbox.put``, counting and timing the wait when it must wait
        and the service has a registry."""
        if self.metrics is None or inbox.has_room():
            await inbox.put(entry)
            return
        self.metrics.inc("stream.backpressure_waits")
        blocked = time.perf_counter()
        await inbox.put(entry)
        latency_histogram(self.metrics, "stream.backpressure.seconds").observe(
            time.perf_counter() - blocked
        )

    async def _request(self, session: _Session, close: bool) -> object:
        if session.closed:
            raise RuntimeError(f"session {session.name!r} is closed")
        if close:
            session.closed = True
        reply: "asyncio.Future[object]" = asyncio.get_running_loop().create_future()
        inbox = self._inboxes[session.worker]
        try:
            await self._put(inbox, (session, None, reply, close))
        except BaseException:
            if close:  # the close never reached the worker
                session.closed = False
            raise
        return await reply

    async def _run_worker(self, index: int) -> None:
        inbox = self._inboxes[index]
        entries = inbox.entries
        while True:
            if not entries:
                await inbox.wait()
                continue
            entry = entries.popleft()
            if inbox.putters:
                inbox.grant()
            self._handle(entry)

    def _handle(self, entry: _Entry) -> None:
        session, action = entry[0], entry[1]
        if action is None:
            self._answer(session, entry[2], entry[3])
            return
        if session.error is not None:
            return
        try:
            session.certifier.feed(action)
        except Exception as exc:  # surfaced on next verdict/close
            session.error = exc
            if self.metrics is not None:
                self.metrics.inc("stream.errors")
            return
        session.actions += 1
        if session.timed:
            self._observe(session, entry[2])

    def _observe(self, session: _Session, enqueued: float) -> None:
        """Count one certified feed and its feed→verdict latency: inbox
        wait plus certification, the client-visible lag."""
        elapsed = time.perf_counter() - enqueued
        if self.metrics is not None:
            self.metrics.inc("stream.actions")
            latency_histogram(self.metrics, "stream.latency.feed_to_verdict").observe(
                elapsed
            )
        if session.metrics is not None and session.metrics is not self.metrics:
            latency_histogram(session.metrics, "stream.latency.feed_to_verdict").observe(
                elapsed
            )

    def _answer(
        self, session: Optional[_Session], reply: "asyncio.Future[object]", close: bool
    ) -> None:
        """Answer a request; a requester that stopped waiting gets no answer,
        but a close still closes the session."""
        if session is None:
            result: object = None
        elif session.error is not None:
            if close:
                self._finalize(session)
            if not reply.done():
                reply.set_exception(session.error)
            return
        elif not close:
            result = session.certifier.verdict()
        else:
            result = SessionResult(
                session.name,
                session.certifier.verdict(),
                session.actions,
                session.certifier.compaction_stats(),
            )
            self._finalize(session)
        if not reply.done():
            reply.set_result(result)

    def _finalize(self, session: _Session) -> None:
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
