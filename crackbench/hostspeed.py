"""Host speed probe: scales measured seconds to a fixed host speed.

On a shared virtual machine the speed of a core drifts with what the other
tenants run: a fixed numpy loop took anywhere from 13 ms to 25 ms within one
30 s window, and the speed changes from one second to the next.  Raw wall
times of the same code then differ between runs by more than any useful
bound.  The drift slows all CPU work alike, so the benchmark times a short
fixed probe (numpy array work, an LU factorisation and an interpreter loop,
none of it crackdsm code) at the start and end of every measured interval
and every ``PERIOD_S`` seconds inside it, from a SIGALRM handler, and
reports

    (interval - time spent probing) * mean(REF_S / probe time)

that is, the interval in seconds on a host where the probe takes ``REF_S``.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.linalg

# Probe seconds on the reference host: the median on a 2-vCPU Intel Xeon VM
# at 1 BLAS thread.  A fixed constant, so that scaled times of two commits
# are comparable; it is not re-measured.
REF_S = 0.0013

# Seconds between probes inside a measured interval.
PERIOD_S = 0.05

_RNG = np.random.default_rng(20180312)
_PHASES = _RNG.uniform(0.0, 6.0, (2000, 4))
_MATRIX = _RNG.standard_normal((120, 120))


def probe():
    """Wall seconds of one run of the fixed probe work."""
    t0 = time.perf_counter()
    np.exp(1j * _PHASES).sum(axis=1)
    scipy.linalg.lu_factor(_MATRIX)
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def scale(seconds, probes):
    """``seconds`` of work at the speed the ``probes`` (probe times) measured,
    in seconds at the reference host speed."""
    return seconds * float(np.mean([REF_S / p for p in probes]))


class HostClock:
    """Measures intervals and scales them to the reference host speed."""

    def __init__(self):
        self.probes = []   # every probe time, for the record
        self.paused = 0.0  # seconds spent probing

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.paused += time.perf_counter() - t0

    def measure(self, fn):
        """Run ``fn()`` in this process; return its result and its wall
        seconds, raw and scaled."""
        first = len(self.probes)
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        paused = self.paused
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = time.perf_counter() - t0 - (self.paused - paused)
        self._sample()
        return result, raw, scale(raw, self.probes[first:])
