"""Host-speed sampler: times a fixed reference computation at short, regular
intervals while a workload runs, so that timings can be expressed in units of
that computation.

On a shared host the speed a process gets swings by up to 2x within seconds
(neighbours on the same cores, caches and memory), so raw seconds from one run
can differ from the next by 20 % or more.  A reference computation doing the
same kind of work as the workload is slowed by the same contention.  A
duration times the reference's rate over the same interval, in the same
thread, is the number of reference runs that would have fitted in it: the
unit ``ref`` of the benchmark's normalised metrics.  The references are part
of the benchmark, not of tsbounds, so a change to the program moves the
normalised time and leaves the unit alone.

Samples are taken from a SIGALRM handler in the main thread, so they also land
inside long library calls (as soon as the interpreter regains control).  The
time the handler spends is subtracted from every interval it falls in.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np
from scipy.special import gammainc

# Seconds between samples, and the fewest samples a normalised interval uses;
# an interval holding fewer borrows the nearest ones around it.
PERIOD = 0.1
MIN_SAMPLES = 8

_Q_LO = np.full(256, -0.49)
_DSQ = np.linspace(0.01, 3.0, 256)
_GAMMA_X = np.linspace(-0.5, 40.0, 32768)
_rng = np.random.default_rng(20260101)
_RECEIVED = _rng.standard_normal((640, 23))
_IMAGES = np.where(_rng.random((23, 4096)) < 0.5, -1.0, 1.0)


def small_arrays() -> float:
    """Elementwise numpy expressions on 256-element arrays, one bisection
    step at a time: the inner loop of the exponent minimisers."""
    a, b = _Q_LO.copy(), np.zeros_like(_Q_LO)
    for _ in range(50):
        x = 0.5 * (a + b)
        denom = 1.0 + 1.4 * x + (1.0 - 2.0 * x) * _DSQ
        v = 0.5 * (np.log1p(-2.0 * x) - np.log1p(1.4 * x)) - 64.0 * (1.0 - 1.0 / denom)
        take = v <= v.mean()
        a = np.where(take, a, x)
        b = np.where(take, x, b)
    return float(v.sum())


def special() -> float:
    """The regularised incomplete gamma over a 32768-node array, the size
    of the bounds' typical quadrature call (26k to 52k nodes), so that it
    competes for the same cache levels."""
    return float(gammainc(7.5, np.maximum(_GAMMA_X, 0.0)).sum())


def decoder() -> int:
    """A correlation GEMM against 4096 codeword images and its argmax: the
    ML decoder's inner step.  Its 20 MiB product, like the decoder's, does
    not stay in cache, so memory contention slows both."""
    return int((_RECEIVED @ _IMAGES).argmax(axis=1).sum())


KERNELS = {"small_arrays": small_arrays, "special": special, "decoder": decoder}


class HostSpeed:
    """Collects (start, duration) samples of one reference while running."""

    def __init__(self, kernel: str) -> None:
        self.kernel = KERNELS[kernel]
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._saved = None

    def __enter__(self) -> "HostSpeed":
        self.kernel()  # warm the code paths before the first sample
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._tick(None, None)  # so that even a run shorter than a period has one

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def in_ref(self, t0: float, t1: float) -> float:
        """The work time of [t0, t1], handler time removed, in reference
        runs: that time times the mean reference rate over the interval."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = sum(self.durations[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            # widen towards the side whose next sample is closer
            left = t0 - self.starts[lo - 1] if lo > 0 else math.inf
            right = self.starts[hi] - t1 if hi < len(self.starts) else math.inf
            if left <= right:
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no host-speed samples were taken")
        rate = sum(1.0 / d for d in self.durations[lo:hi]) / (hi - lo)
        return (t1 - t0 - busy) * rate
