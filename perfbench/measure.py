"""Measurement helpers shared by the workloads.

* :class:`SpanRecorder` — the traced run's span store.  Spans are opened
  by the benchmark around calls into the program's public functions and
  aggregated per name as they close: inclusive time, self time (duration
  minus the time of the child spans it encloses), call count, and for
  names asked for, every duration.
* :class:`GcMonitor` — garbage-collector pauses through ``gc.callbacks``.
* :class:`Digest` — the hash of a workload's inputs.
* :func:`probe` — the machine's speed right now, and :class:`ScaledClock`,
  which probes it on a timer while a long operation runs.
* order statistics and peak memory.

Calibration.  The speed of a shared machine drifts by tens of percent
within seconds as other tenants load it, for this process's own code as
much as for anything else.  So the workloads time a fixed pure-Python
loop, :func:`probe`, and scale every time and rate they report to the
speed at which that loop takes :data:`NOMINAL_PROBE_S`: by the probes on
either side of an operation that is short next to how long the machine
holds one speed (a pipeline case, a stream window), and by probes on a
timer, every :data:`CLOCK_PROBE_S` seconds, through operations that are
not (a set-up, an audit of a serial log).  The loop is the benchmark's
own code, so a change to the program moves the scaled numbers exactly
as much as the raw ones, while a slow stretch of the machine moves both
the loop and the operation and cancels out.  The raw numbers are
printed as well.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: iterations of the calibration loop, and its typical time on the
#: machine the benchmark was tuned on (a shared 2.1 GHz Xeon vCPU): the
#: speed that scaled times and rates refer to
PROBE_ITERATIONS = 20_000
NOMINAL_PROBE_S = 4.0e-3
#: how often :class:`ScaledClock` probes, and the iterations of its
#: shorter probes: many short probes average out the jitter of one
CLOCK_PROBE_S = 0.05
CLOCK_PROBE_ITERATIONS = 4_000


def probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds one run of a fixed, interpreter-bound loop takes now.

    The loop allocates no object the collector tracks, and the collector
    is off while it runs, so its time does not depend on the heap the
    workload has built.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        total = 0
        for i in range(iterations):
            key = i & 1023
            table[key] = table.get(key, 0) + 1
            total += len(table) ^ i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(*probes: float) -> float:
    """Factor that takes a time measured next to ``probes`` to the
    nominal machine speed."""
    return NOMINAL_PROBE_S * len(probes) / sum(probes)


class ScaledClock:
    """Raw and scaled seconds, probed on a timer.

    Some operations run for seconds, longer than the machine holds one
    speed, so probes on either side of one say little about it.  While
    a clock runs, a timer signal probes the machine every
    :data:`CLOCK_PROBE_S` seconds, and each stretch between two probes
    is scaled by the probes on either side of it (the first stretch,
    which starts at ``start``, by the probe after it).  The probes' own
    time is left out of both sums, and out of the open spans of
    ``recorders``.
    """

    def __init__(
        self,
        start: Optional[float] = None,
        recorders: Sequence["SpanRecorder"] = (),
    ) -> None:
        #: seconds since ``start``, raw and scaled, as of the last probe
        self.raw = 0.0
        self.scaled = 0.0
        self._lapped = (0.0, 0.0)
        self._recorders = list(recorders)
        self._stretch_start = time.perf_counter() if start is None else start
        self._last_probe: Optional[float] = None
        self._busy = False
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CLOCK_PROBE_S, CLOCK_PROBE_S)

    def _tick(self, *_: object) -> None:
        if self._busy:  # the timer went off during lap()
            return
        self._busy = True
        started = time.perf_counter()
        seconds = probe(CLOCK_PROBE_ITERATIONS) * PROBE_ITERATIONS / CLOCK_PROBE_ITERATIONS
        probes = [seconds] if self._last_probe is None else [self._last_probe, seconds]
        stretch = started - self._stretch_start
        self.raw += stretch
        self.scaled += stretch * scale(*probes)
        self._last_probe = seconds
        self._stretch_start = time.perf_counter()
        for recorder in self._recorders:
            recorder.skip(self._stretch_start - started)
        self._busy = False

    def lap(self) -> Tuple[float, float]:
        """Probe now; the raw and scaled seconds since the last lap."""
        self._tick()
        raw, scaled = self._lapped
        self._lapped = (self.raw, self.scaled)
        return self.raw - raw, self.scaled - scaled

    def stop(self) -> Tuple[float, float]:
        """Stop the timer; the raw and scaled seconds since the last lap."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.lap()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Digest:
    """SHA-256 over a workload's inputs, printed so that two runs can be
    seen to have measured the same inputs."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events = 0

    def add(self, text: str, events: int = 0) -> None:
        self._hash.update(text.encode())
        self._hash.update(b"\0")
        self.events += events

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


class SpanRecorder:
    """Aggregating span store; spans must nest (no ``await`` inside)."""

    def __init__(self, sampled: Sequence[str] = ()) -> None:
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {name: [] for name in sampled}
        self._stack: List[List[Any]] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - children
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        samples = self.samples.get(name)
        if samples is not None:
            samples.append(duration)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(
        self, function: Callable[..., Any], name: str, consume: bool = False
    ) -> Callable[..., Any]:
        """``function`` timed under a span named ``name``.

        With ``consume`` the result (a lazy iterator) is drained into a
        list inside the span, so the span times the work and not the
        creation of a generator.
        """

        def timed(*args: Any, **kwargs: Any) -> Any:
            self.enter(name)
            try:
                result = function(*args, **kwargs)
                return list(result) if consume else result
            finally:
                self.exit()

        return timed

    def skip(self, seconds: float) -> None:
        """Leave ``seconds`` just spent outside the program out of every
        open span."""
        for frame in self._stack:
            frame[1] += seconds

    def seconds(self, *names: str) -> float:
        """Summed inclusive time of ``names``."""
        return sum(self.total.get(name, 0.0) for name in names)

    def self_seconds(self, *names: str) -> float:
        return sum(self.self_time.get(name, 0.0) for name in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def merge(self, other: "SpanRecorder") -> None:
        """Add ``other``'s closed spans to this recorder."""
        for name, seconds in other.total.items():
            self.total[name] = self.total.get(name, 0.0) + seconds
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + other.self_time[name]
            )
            self.calls[name] = self.calls.get(name, 0) + other.calls[name]
        for name, samples in other.samples.items():
            self.samples.setdefault(name, []).extend(samples)

    def attributed(self) -> float:
        """Self time summed over every span: the wall time that landed in
        a named layer."""
        return sum(self.self_time.values())


class GcMonitor:
    """Collector pauses seen through ``gc.callbacks`` while active."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2_collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._started
        if info.get("generation") == 2:
            self.gen2_collections += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)
