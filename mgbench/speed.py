"""Machine-speed probe for timing on a shared host.

On a shared host the speed of a core can drift by up to 2x over seconds to
minutes (other tenants, frequency), while the steal time that /proc/stat
reports stays near zero.  Wall time alone then cannot repeat within a tenth
between runs.  The drift scales all pure-Python work alike: alternating a
fixed reference computation with a library call every 20 ms, the ratio of
their times over a few seconds varied by 2% while the call's own time
varied by 11%.

`SpeedProbe.timed(fn)` therefore runs `fn` with a SIGALRM timer that, every
PROBE_INTERVAL_S, runs `reference()` and records how long it took.  It returns
the wall time of `fn` minus the time spent in the probe, and that time
scaled to reference speed: ``wall * NOMINAL_REFERENCE_S / m``, where ``m`` is
the mean of the reference samples taken during `fn` without the lowest and
highest TRIM of them.  A mean, because the work's time is the time average
of the host's speed; trimmed, because a garbage collection that lands in one
sample would otherwise move it.  Over twelve passes of the exact demos the
wall time varied by 10% and the scaled time by 2.2% (a median of the samples
gave 4.9%).  The scaled time is what the work would take on this host when
the reference runs in NOMINAL_REFERENCE_S.
"""

from __future__ import annotations

import contextlib
import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.02
TRIM = 0.05
REFERENCE_TERMS = 150
# reference()'s time on a 2.0 GHz Intel Xeon vCPU with CPython 3.11.7 when
# the host ran at its fastest.
NOMINAL_REFERENCE_S = 0.0004


def reference() -> Fraction:
    """Fixed rational work: the harmonic sum H_149."""
    total = Fraction(0)
    for k in range(1, REFERENCE_TERMS):
        total += Fraction(1, k)
    return total


def trimmed_mean(values, share: float = TRIM) -> float:
    """Mean without the lowest and highest `share` of the values."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class SpeedProbe:
    def __init__(self):
        self.samples = []  # seconds per reference() call
        self.probe_s = 0.0  # time spent inside the handler

    def _sample(self) -> float:
        start = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, signum, frame):
        self.probe_s += self._sample()

    @contextlib.contextmanager
    def _running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn) -> tuple:
        """(wall seconds of fn without the probe, the same at reference speed)."""
        first, probe_before = len(self.samples), self.probe_s
        start = time.perf_counter()
        with self._running():
            fn()
        wall = time.perf_counter() - start - (self.probe_s - probe_before)
        if len(self.samples) == first:  # fn ended before the first tick
            self._sample()
        return wall, wall * NOMINAL_REFERENCE_S / trimmed_mean(self.samples[first:])
