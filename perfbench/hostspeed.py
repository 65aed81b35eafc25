"""Wall time scaled to a fixed host speed.

A shared host does not run a process at a steady speed: the same pure-Python
loop takes anywhere between 1x and 2x its best time, and the speed changes
within tens of milliseconds and drifts over minutes.  Raw wall time then
measures the neighbours more than the program.

The sampler fires every INTERVAL_S seconds of wall time (SIGALRM) and runs a
fixed pure-Python reference kernel, which imports nothing from cherednik, in
the signal handler, between two bytecodes of whatever the process is doing.
It runs the kernel twice and times the second run: the first refills the
caches the program has just used, so the timed run measures the host's
speed at that moment and not the program's own cache footprint.  An
interval of work is then reported as

    (its wall time - the time spent in the handler) * REF_KERNEL_S * mean(1 / kernel time)

over the samples taken inside it: the seconds the same work would take at
the speed where one timed kernel run takes REF_KERNEL_S, which on a
2-vCPU x86_64 (Xeon, 2.0 GHz) host is about its fast state.  A change to
the program cannot change the kernel, so it moves the scaled time as it
moves the work done.  On that host this cuts the run-to-run spread of a
1.3 s CLI job from 12 % of its time (coefficient of variation) to 2 %.  The
handler costs about 2 % of the process's time; it is excluded from every
scaled interval.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.02
REF_KERNEL_S = 120e-6


def reference_kernel():
    """Fraction arithmetic and tuple-keyed dict updates: the operations
    cherednik's scalar and PBW code spends its time in."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 25):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[(i, i % 3)] = table.get((i % 5, 0), 0) + i
    return acc


class SpeedSampler:
    """Samples host speed on a wall-clock timer while it is started."""

    def __init__(self):
        self.starts = array("d")  # perf_counter at handler entry, increasing
        self.kernel = array("d")  # seconds of the reference kernel
        self.handler = array("d")  # seconds from handler entry to exit
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        try:
            reference_kernel()
            t1 = time.perf_counter()
            reference_kernel()
        except RecursionError:  # fired at the bottom of a too-deep stack
            return
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.kernel.append(t2 - t1)
        self.handler.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of work between perf_counter readings t0 and t1, at the
        reference speed.  An interval shorter than the sampling interval
        takes the speed of the sample just before it (or just after, if
        none came before)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        net = t1 - t0 - sum(self.handler[lo:hi])
        if hi > lo:
            inverse = sum(1.0 / k for k in self.kernel[lo:hi]) / (hi - lo)
        elif lo > 0:
            inverse = 1.0 / self.kernel[lo - 1]
        elif lo < len(self.kernel):
            inverse = 1.0 / self.kernel[lo]
        else:
            raise RuntimeError("no host speed sample yet")
        return net * REF_KERNEL_S * inverse
