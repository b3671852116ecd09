"""Host speed, sampled with a fixed kernel while ops run.

The machines this benchmark runs on give it a share of a busy host, and
the speed of one core drifts by up to 2x within seconds as neighbours come
and go (wall and CPU time drift together, so CPU time does not help).  A
wall-clock latency then measures the neighbours as much as the program.
So the benchmark also times a small fixed kernel (pure Python, numpy on
small arrays, one sort: the mix the noisycycles layers spend their time
in; it calls nothing of noisycycles, so a change to the package cannot
move it) every ``INTERVAL_S`` seconds, from a SIGALRM handler, while it
sets up and while it runs ops.  The time the handler takes is taken out
of the latencies.

An op's *reference seconds* are its wall seconds times the host's mean
speed over the op, ``KERNEL_REF_S / kernel time`` averaged over the
samples taken during it (widened to ``MIN_WINDOW_S``): the time it would
have taken on a host that runs the kernel in ``KERNEL_REF_S``.  Samples
come at even wall-time intervals, so the mean weights the host's speed by
the time the op spent at it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
MIN_WINDOW_S = 1.0
# kernel time on an unloaded core of the host the baseline was recorded on
KERNEL_REF_S = 1.4e-3

_SMALL = np.linspace(0.1, 1.0, 40).reshape(20, 2)
_LARGE = np.linspace(0.0, 1.0, 16384)


def kernel():
    x = 0.0
    for i in range(3000):
        x += (i * 0.5) % 7.0
    y = _SMALL
    for _ in range(400):
        y = np.sin(y) * 0.5 + _SMALL
    for _ in range(3):
        x += float(np.sort(_LARGE[::-1] * 1.0001)[0])
    return x + float(y[0, 0])


class HostSpeed:
    """Kernel samples, (start, seconds) each: one at ``start``, one every
    ``INTERVAL_S`` seconds until ``stop`` and one at ``stop``."""

    def __init__(self):
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def _tick(self, signum, frame):
        self.sample()

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def sampling_s(self, t0, t1):
        """Seconds spent sampling between ``t0`` and ``t1``."""
        return sum(dt for start, dt in self.samples if t0 <= start < t1)

    def rate(self, t0, t1):
        """The host's mean speed between ``t0`` and ``t1``, relative to the
        reference host.  Spans shorter than ``MIN_WINDOW_S`` are widened to
        it about their middle, so a short op is not judged on one or two
        samples."""
        pad = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2.0
        span = [dt for start, dt in self.samples if t0 - pad <= start <= t1 + pad]
        return sum(KERNEL_REF_S / dt for dt in span) / len(span)
