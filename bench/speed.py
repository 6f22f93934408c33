"""The host's speed, sampled while a measurement runs, to scale its time.

The machine this benchmark was tuned on changes speed in phases of seconds to
minutes: interpreted Python runs up to twice as slow in a slow phase, while
CPU time still matches wall time.  A wall time alone then says more about the
phase than about the program.  So a measured call runs under a
``SpeedProbe``: an interval timer interrupts the process every ``INTERVAL_S``
and times a fixed piece of pure-Python work (the probe).  The probe's time
says how fast the host runs at that moment, and each stretch of the call
between two probe runs is scaled by ``REFERENCE_PROBE_S`` over the probe time
there.  The result, in *reference seconds*, is the time the call would take
on a host that runs the probe in ``REFERENCE_PROBE_S``.

The probe runs in the measured process's only thread, between bytecodes, and
its own time is left out of the scaled time.  Long calls into native code
(numpy on wide vectors) slow down far less than interpreted code in a slow
phase: on the tuning host by about 12 % where interpreted code slowed by
70-80 %.  Python runs a signal handler only once such a call returns, so a tick
of the timer that lands in one is handled late or merged with the next
tick.  The share of ticks handled on time is the share of the call's time
spent interpreting, and only that share is scaled; the rest counts as is.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
# A tick handled later than this after it was due landed in native code.
# Interpreted code sees ticks 30-70 us late: the kernel's default 50 us timer
# slack plus the handler's call.
LATE_S = 0.00015
# The probe's time in the fast phases of the 2-core Xeon host the benchmark
# was tuned on, so that reference seconds read close to the wall seconds of a
# fast phase there.
REFERENCE_PROBE_S = 0.00018
_KEYS = tuple(f"key{i}" for i in range(32))


def _probe_work() -> int:
    """Fixed interpreted work: calls, string building and dict updates."""
    counts: dict[str, int] = {}
    total = 0
    for i in range(480):
        key = _KEYS[i & 31]
        counts[key] = counts.get(key, 0) + len(f"{key}:{i}")
        total += _step(i)
    return total + len(counts)


def _step(i: int) -> int:
    return (i * 7) % 5


class SpeedProbe:
    """Times the probe every ``INTERVAL_S`` between ``start`` and ``stop``.

    ``samples`` holds (start, duration, lateness) of each probe run, where
    lateness is how long after its tick was due the handler ran.  It uses
    SIGALRM and the real-time interval timer, so one probe at a time per
    process.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []
        self._previous_handler = None
        self._ticks_from = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        late = (start - self._ticks_from) % self.interval
        _probe_work()
        self.samples.append((start, perf_counter() - start, late))

    def start(self) -> None:
        for _ in range(3):  # warm, so the first sample is not a cold start
            _probe_work()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._ticks_from = perf_counter()
        self._sample(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._ticks_from = perf_counter()  # tick k is due k intervals after this

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float) -> float:
        return reference_seconds(self.samples, start, end, self.interval)


def interpreted_share(samples, start: float, end: float, interval: float) -> float:
    """Share of [start, end] spent interpreting: ticks handled on time ÷ ticks due."""
    on_time = sum(1 for s, _, late in samples if start <= s < end and late < LATE_S)
    return min(1.0, on_time * interval / (end - start)) if end > start else 1.0


def reference_seconds(samples: list[tuple[float, float, float]], start: float, end: float,
                      interval: float) -> float:
    """The time from ``start`` to ``end`` without probe runs, in reference seconds.

    Of each stretch between probe runs, the interpreted share is scaled by
    ``REFERENCE_PROBE_S`` over the probe's time and the rest counts as is.
    The stretch after probe run i takes the median time of probe runs i-1,
    i and i+1, so one disturbed probe run does not rescale a stretch; the
    part of [start, end] before the first probe run is scaled like the
    stretch after it.
    """
    if not samples:
        raise ValueError("no probe samples")
    share = interpreted_share(samples, start, end, interval)
    durations = [d for _, d, _ in samples]
    smoothed = [statistics.median(durations[max(0, i - 1):i + 2]) for i in range(len(samples))]
    scale = [share * REFERENCE_PROBE_S / probe_s + (1.0 - share) for probe_s in smoothed]
    # Stretch i runs from the end of probe run i to the start of run i+1.
    bounds = [s + d for s, d, _ in samples]
    nexts = [s for s, _, _ in samples[1:]] + [float("inf")]
    total = 0.0
    first_start = samples[0][0]
    if start < first_start:
        total += (min(end, first_start) - start) * scale[0]
    for lo, hi, factor in zip(bounds, nexts, scale):
        lo, hi = max(lo, start), min(hi, end)
        if hi > lo:
            total += (hi - lo) * factor
    return total
