"""Host speed probe for the cqsw benchmark.

On a shared virtual machine the same code runs up to 2x slower for minutes
at a time, whenever other tenants load the host. The probe times a fixed
slice of the work cqsw does most (small Hermitian eigendecompositions,
matrix products and Python-level arithmetic), so that a time measured next
to it can be expressed in seconds of the reference host:
``measured * REFERENCE_S / probe time``. The host's speed changes within a
second, so ``Sampler`` probes it every few milliseconds while the measured
code runs, from a timer signal, and scales each call by the probes taken
during it and next to it.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# Probe time on the reference host (2-core VM, Python 3.11, numpy 2.4) when
# it is not loaded.
REFERENCE_S = 1.5e-4

_G = np.random.default_rng(0).standard_normal((2, 4, 4))
_A = (_G[0] + 1j * _G[1]) + (_G[0] + 1j * _G[1]).conj().T


def _slice():
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(8):
        w, v = np.linalg.eigh(_A)
        m = (v * w) @ v.conj().T
        acc += float(np.max(np.abs(m - _A)))
        for k in range(40):
            acc += k * 1e-12
    return time.perf_counter() - t0


def probe():
    """Seconds taken by the fixed slice of work: the best of three back-to-back
    runs, so that caches left cold by the preceding call do not count."""
    return min(_slice() for _ in range(3))


class Sampler:
    """Probes the host speed every ``interval`` seconds of wall time, from a
    SIGALRM handler in the main thread, between ``start`` and ``stop``."""

    def __init__(self, interval):
        self.interval = interval
        self.t, self.value = [], []   # probe start times and probe values
        self.cost = [0.0]             # cost[k]: seconds spent in the first k probes
        self._busy = False
        self._old = None

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a tick that falls due while probing is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        value = probe()
        self.t.append(t0)
        self.value.append(value)
        self.cost.append(self.cost[-1] + time.perf_counter() - t0)
        self._busy = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def scale(self, t0, t1):
        """Reference-host seconds per second over the span t0..t1 of
        perf_counter time: REFERENCE_S over the mean of the probes inside the
        span and of the last one before and the first one after it."""
        i, j = bisect_left(self.t, t0), bisect_right(self.t, t1)
        return REFERENCE_S / statistics.fmean(self.value[max(i - 1, 0):j + 1])

    def probing(self, t0, t1):
        """Seconds this process spent probing inside the span t0..t1."""
        i, j = bisect_left(self.t, t0), bisect_right(self.t, t1)
        return self.cost[j] - self.cost[i]
