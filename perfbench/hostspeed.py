"""The host's speed, sampled during a run, to put timings on a fixed scale.

The benchmark runs on shared virtual CPUs whose speed drifts: on a 2-vCPU
VM a fixed pure-Python loop took from 7 to 11 ms, in spells of a few seconds,
and the wall time of one and the same demo run ranged from 4.2 to 7.8 s over
a few minutes. The process's CPU time drifts with it, so it is no remedy.
So while a run is timed, a timer signal interrupts it every ``PERIOD_S`` and
times one reference loop in the run's own process and thread. The loop does
what the run's hot path does (per-element float arithmetic over two integer
vectors, then ``sum`` and ``sqrt``), so it slows when the run slows. It is
the benchmark's own code, so a faster program does not make it faster.

``Calibrator.scale(start, end)`` turns a wall interval into reference
seconds: the wall time minus the reference loops that ran inside it, times
``REF_LOOP_S`` over the harmonic mean of the loop's times. A timing in
reference seconds is the time the same work takes on a host where one
reference loop takes ``REF_LOOP_S``.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

PERIOD_S = 0.05
REF_LOOP_S = 0.0005  # about one loop's time on a 2.1 GHz Xeon vCPU, Python 3.11
_A = list(range(200))
_B = list(range(3, 203))


def reference_loop() -> float:
    total = 0.0
    for _ in range(20):
        total += math.sqrt(sum([float(a - b) ** 2 for a, b in zip(_A, _B)]))
    return total


class Calibrator:
    """Times ``reference_loop`` every ``PERIOD_S`` of wall time between
    ``start()`` and ``stop()``, and once at each of them, so a short run
    still has samples."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._prefix = [0.0]  # summed durations of the samples before index i
        self.factor = 0.0
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        # A signal that arrives while a loop is timed (the process was
        # descheduled for a whole period) would nest and count it twice.
        if self._sampling:
            return
        self._sampling = True
        start = time.perf_counter()
        reference_loop()
        duration = time.perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self._prefix.append(self._prefix[-1] + duration)
        self._sampling = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stops sampling and fixes ``factor``: reference seconds per wall
        second of the program's own work. Samples are evenly spaced in wall
        time, so the harmonic mean of the loop times gives the mean speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        self.factor = REF_LOOP_S / statistics.harmonic_mean(self.durations)

    def busy(self, start: float, end: float) -> float:
        """Wall time spent in reference loops that began in ``[start, end)``."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        return self._prefix[last] - self._prefix[first]

    def scale(self, start: float, end: float) -> float:
        """The wall interval ``[start, end)`` without its reference loops, in
        reference seconds; call after ``stop``."""
        return (end - start - self.busy(start, end)) * self.factor
