"""A fixed numpy kernel that measures how fast the host runs during a run.

On a shared host the same op can run at one speed or at 1.5-2 times
that, switching within a second, and the share of slow time drifts from
minute to minute.  While a workload runs, HostSampler calls this kernel
on a timer every TICK_S seconds, inside ops and between them, taking its
time out of the op it interrupted, and BURST times right before every op
sample.  run.py rescales each run's op times by the kernel's mean time in
that run (see README.md, "Host speed").  The kernel does not touch the
library: a change to the library cannot move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.fft import fft, ifft  # bound now: a tracer that patches numpy.fft does not see them

# Mean time of one call on the host the baseline was taken on (see the
# machine stamp in baseline.json).  It only fixes the scale: a run's op
# times are reported as if the host ran the kernel in NOMINAL_S.
NOMINAL_S = 0.0013
TICK_S = 0.1  # wall seconds between two timed calls
BURST = 3  # calls right before each op sample, and after a set-up child's import

_X = np.random.default_rng(0).standard_normal((64, 64, 6))
_K = np.fft.fftfreq(64)[:, None, None]


def yardstick():
    """Wall seconds of one call: spectral derivatives along both axes of an
    (N, N, 6) field at N=64 and their pointwise dot product, as the
    library's operators compute them."""
    start = time.perf_counter()
    a = ifft(fft(_X, axis=0) * _K, axis=0).real
    b = ifft(fft(a, axis=1) * _K.reshape(1, 64, 1), axis=1).real
    np.einsum("ijk,ijk->ij", a, b)
    return time.perf_counter() - start


class HostSampler:
    """Calls the yardstick on SIGALRM every TICK_S seconds between start and stop.

    `times` holds the duration of every call, timed or from burst(); `spent`
    sums the timed ones, which a caller timing an op subtracts.  While
    `paused`, a tick does nothing.
    """

    def __init__(self):
        self.times = []
        self.spent = 0.0
        self.paused = False

    def _tick(self, signum, frame):
        if not self.paused:
            elapsed = yardstick()
            self.times.append(elapsed)
            self.spent += elapsed

    def burst(self):
        self.times.extend(yardstick() for _ in range(BURST))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
