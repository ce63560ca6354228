"""Rescale measured times to a fixed reference speed of the interpreter.

On a shared 2-vCPU host the same pure-Python work ran 1.4-2x slower for
stretches lasting from a few seconds to minutes, and CPU time rose with wall
time, so neither the median over passes nor ``process_time`` removes the
slowdown.  This module measures how fast the interpreter runs right now with
a fixed burst of pure-Python work (about 1.2 ms on that host) and rescales
each measured time by ``REF_BURST_S / burst time``: a reference second is the
time the work would take on an interpreter that runs one burst in
``REF_BURST_S``.  On that host, over ten repeats of three CLI commands, the
coefficient of variation fell from 12-17% raw to 2-3% rescaled.

While operations run, ``SpeedProbe`` fires the burst from a ``SIGALRM``
interval timer every ``PERIOD_S`` (about 1% of the time), in the process and
thread that does the work, and records how long each burst took.  The module imports only ``gc``, ``signal`` and ``time`` so that a
set-up measurement can use it without pre-importing what it measures.
"""

import gc
import signal
import time

REF_BURST_S = 1e-3
PERIOD_S = 0.1
# An interval with fewer bursts inside also uses the ones just before it.
MIN_BURSTS = 10


def _burst() -> int:
    """Fixed interpreter work: small-int arithmetic, dict stores, list appends."""
    s = 0
    d = {}
    xs = []
    for i in range(8000):
        s += (i * 31) % 7
        d[i & 63] = s
        xs.append(i * 0.5)
    return s + len(xs) + len(d)


def timed_burst() -> float:
    """Seconds one burst takes now, with the cyclic collector held off.

    Without it a burst that happened to trigger a full collection would time
    the program's heap, and a program with a bigger heap would look faster.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _burst()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(samples: int = 5) -> float:
    """Median seconds of `samples` back-to-back bursts."""
    times = sorted(timed_burst() for _ in range(samples))
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2


def rescale(seconds: float, burst_s: float) -> float:
    """Reference seconds for `seconds` measured while one burst took `burst_s`."""
    return seconds * REF_BURST_S / burst_s


class SpeedProbe:
    """Bursts on a wall-clock timer while the measured work runs."""

    def __init__(self) -> None:
        self.bursts: list[float] = []  # seconds of each burst, in order
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.bursts.append(timed_burst())

    def start(self) -> None:
        calibrate(3)  # warm the burst's code; these are not kept
        # bursts just before the first interval, for intervals shorter than that
        self.bursts += [timed_burst() for _ in range(MIN_BURSTS)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """Call right before and right after an interval; see `measure`."""
        return len(self.bursts)

    def measure(self, mark: int, end: int, elapsed: float) -> tuple[float, float, float]:
        """(seconds of work, reference seconds, speed ratio) of one interval.

        The bursts that ran inside the interval are taken out of `elapsed`.
        The speed ratio is the mean of ``REF_BURST_S / burst`` over those
        bursts, topped up with the ones just before to at least
        `MIN_BURSTS`; with evenly spaced bursts it weights the interval's
        stretches by their length.
        """
        inside = self.bursts[mark:end]
        work = elapsed - sum(inside)
        window = self.bursts[max(0, min(mark, end - MIN_BURSTS)):end]
        ratio = sum(REF_BURST_S / b for b in window) / len(window)
        return work, work * ratio, ratio
