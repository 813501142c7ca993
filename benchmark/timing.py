"""Timing that survives the host's speed states.

The host this benchmark was tuned on (2 vCPUs) changes speed all the time:
code runs at full speed or up to about 2x slower, in stretches that last
from a fraction of a second to tens of seconds and often change within one
0.3 s operation, and the slow stretches slow memory-heavy code more than
register arithmetic.  Raw medians of identical code moved by 15-45 %
between 30 s runs, and the minimum over a run divided by the minimum of a
reference kernel timed between operations by 20-40 %.

So every timed sample is calibrated twice:

- against :func:`reference_kernel` (small numpy calls and Python arithmetic,
  about 1 ms), timed right before and right after the sample, best of two
  runs each (the first run after library code pays for refilling caches).
  It sees the speed level but not changes within a sample, and the slow
  stretches slow it by about 1.85x, more than most operations;
- against :func:`probe_kernel` (Python float arithmetic, a few microseconds),
  timed inside the sample every ``PERIOD_S`` of wall time by an interval
  timer's signal handler.  It sees changes within the sample, but the slow
  stretches slow it by only about 1.2x, less than any operation.

A sample of raw duration T counts as the geometric mean of the two
calibrations,

    T * sqrt(REFERENCE_NOMINAL_S / mean(ref before, ref after)
             * mean(PROBE_NOMINAL_S / p_i)),

and an operation's reported time is the median of that over the run's
samples.  Over ten 30 s runs each of ``grid-ops`` and ``cli-pipeline``,
every calibration computed from the same samples, the largest quartile
spread of an operation was 11.8 % this way, against 17.1 % for the
bracketing reference alone, 8.8 % for the probes alone and 40 % raw (an
earlier six runs: 10 %, 16 %, 14 % and 45 %).  The reference alone did as
well on ``cli-pipeline`` (8.2 % against 9.3 %); the probes are kept for
the worst case on ``grid-ops``, which sets the margin to the bounds.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: Fast-state times of the two kernels on the host of the README's reference
#: figures (Python 3.11, numpy 2.4, one BLAS thread).  Calibrated times are
#: in seconds of that host in its fast state.
REFERENCE_NOMINAL_S = 1.05e-3
PROBE_NOMINAL_S = 8.0e-6

#: Wall time between two probes inside a timed sample.
PERIOD_S = 2.5e-3

_SIGNATURE = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])
_BASE = np.linspace(0.1, 1.9, 20).reshape(4, 5)


def reference_kernel() -> float:
    """Frozen mix of small numpy calls and Python arithmetic, like the
    library's per-face work.  Never change it (nor :func:`probe_kernel`):
    every calibrated figure is expressed in units of their run times."""
    acc = 0.0
    seen = {}
    for k in range(60):
        W = _BASE + (k % 11) * 1e-3
        U = W / np.sqrt((W * W).sum(axis=-1))[:, None]
        G = (U * _SIGNATURE) @ U.T
        s = np.linalg.svd(U, compute_uv=False)
        num = float(G[0, 1] * G[2, 3] - G[0, 2] * G[1, 3] + G[0, 3] * G[1, 2])
        acc += num / (2.0 * float(G[0, 3] * G[1, 2])) + float(s[3] / s[0])
        seen[(k, k % 3)] = acc
        acc -= 0.5 * seen[(k, k % 3)] * 1e-3
    return acc


def probe_kernel() -> float:
    """Frozen Python float arithmetic.  It allocates no container objects, so
    no garbage collection starts inside it when it interrupts library code."""
    x = 0.5
    for _ in range(150):
        x = x * 0.999 + 0.25
    return x


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Clock:
    """Timed samples of one run, each with its reference and probe times."""

    def __init__(self):
        self.reference = []
        self.probes = []
        self._during = []

    def _probe(self, signum=None, frame=None) -> None:
        self._during.append(_timed(probe_kernel))

    def _reference(self) -> float:
        best = min(_timed(reference_kernel) for _ in range(2))
        self.reference.append(best)
        return best

    def measure(self, fn):
        """Run ``fn()`` between two reference samples and under the probe
        timer; returns (result, sample) with sample = (seconds, reference
        before, reference after, probe times)."""
        before = self._reference()
        self._during = [_timed(probe_kernel) for _ in range(3)]
        start = len(self._during)
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        # samples shorter than PERIOD_S fall back to the probes just before
        during = self._during[start:] or self._during[:start]
        self.probes.extend(during)
        return result, (elapsed, before, self._reference(), during)

    @staticmethod
    def nominal(sample) -> float:
        """Nominal seconds of one sample."""
        seconds, before, after, during = sample
        by_reference = 2.0 * REFERENCE_NOMINAL_S / (before + after)
        by_probe = statistics.fmean(PROBE_NOMINAL_S / p for p in during)
        return seconds * math.sqrt(by_reference * by_probe)

    def calibrated(self, samples) -> float:
        """Nominal seconds of an operation: median over its samples."""
        return statistics.median(self.nominal(s) for s in samples)
