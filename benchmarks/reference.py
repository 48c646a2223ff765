"""Host-speed reference for the l1geo benchmark.

On a shared host the speed of a vCPU changes from second to second.  On the
2-vCPU VM this benchmark was written on (Xeon, 2.1 GHz, Python 3.11), a
fixed pure-Python loop switched between two speeds 1.6x apart every few
seconds, and the share of time spent at the slower speed ranged from 8% to
98% between 25-second runs.  Raw wall-clock throughput of the same code then
varied by 1.6x from run to run.

So the worker times a fixed computation that does not touch l1geo, the
*probe*, every ``PERIOD_S`` seconds while it measures, and reports its times
in *reference seconds*: wall seconds scaled by ``REFERENCE_S`` over the mean
probe time.  A reference second is the time in which the probe runs
``1 / REFERENCE_S`` times, so figures read close to wall seconds on an idle
host of the kind above, and slow stretches of the host count for less.

The probe mixes interpreted work (``Fraction`` arithmetic, a dict of
tuples) with NumPy work on arrays larger than a core's L2 cache.  The
workloads range from interpreter-bound to NumPy-bound and so slow down by
different factors on a slow host; a probe between the two extremes keeps
the error of the scaling small for all of them.  The NumPy part writes into
buffers allocated once, so its time does not depend on the state of the
measuring process's heap.  It adds about 4 MB to the process's peak
resident memory.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Mean probe time on an idle host; the unit of a reference second.
REFERENCE_S = 0.003
# Seconds between two probes while a Sampler is active.
PERIOD_S = 0.25


class Probe:
    """A fixed computation; calling it runs it once and returns its seconds."""

    def __init__(self):
        # Fixed pseudo-random values in [-1000, 1000], made without numpy.random.
        self.a = (np.arange(1024 * 64, dtype=np.int64).reshape(1024, 64) * 7919) % 2001 - 1000
        self.b = (np.arange(1024, dtype=np.int64).reshape(1024, 1) * 104729) % 2001 - 1000
        self.lo = np.empty_like(self.a)
        self.hi = np.empty_like(self.a)
        self.alive = np.empty(self.a.shape, dtype=bool)
        self.keys = ((np.arange(100_000, dtype=np.int64) * 2654435761) % 2001 - 1000).astype(np.int32)
        self.sorted = np.empty_like(self.keys)

    def _interpreted(self) -> int:
        acc = Fraction(0)
        for i in range(300):
            acc += Fraction(i % 7, 1 + i % 13)
        counts = {}
        for i in range(3000):
            key = (i % 61, i % 7, i % 13)
            counts[key] = counts.get(key, 0) + 1
        return acc.numerator + len(counts)

    def _arrays(self) -> int:
        np.add(self.a, self.b, out=self.lo)
        np.maximum(self.lo, -200, out=self.lo)
        np.subtract(self.a, self.b, out=self.hi)
        np.minimum(self.hi, 300, out=self.hi)
        np.less(self.lo, self.hi, out=self.alive)
        np.copyto(self.sorted, self.keys)
        self.sorted.sort()
        return int(np.count_nonzero(self.alive)) + int(self.sorted[::97].sum())

    def __call__(self) -> float:
        start = perf_counter()
        self._interpreted()
        self._arrays()
        return perf_counter() - start


def scale(times: list[float]) -> float:
    """Reference seconds per wall second, given probe times."""
    return REFERENCE_S / statistics.fmean(times)


class Sampler:
    """Context manager that runs the probe every ``PERIOD_S`` seconds.

    The probe runs from a ``SIGALRM`` handler, so it interrupts the work at
    the next bytecode boundary wherever the work is.  The samples are thus
    spread evenly over time and their mean weighs each stretch of the host's
    speed by how long it lasted.  ``total`` is the time spent in the probe,
    which the caller subtracts from its own wall time.
    """

    def __init__(self, probe: Probe, period: float = PERIOD_S):
        self.probe = probe
        self.period = period
        self.times: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.times.append(self.probe())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def total(self) -> float:
        return sum(self.times)
