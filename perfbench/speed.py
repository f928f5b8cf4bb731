"""Machine speed sampling, to scale timings to a reference speed.

The benchmark runs on CPUs shared with other tenants. On a 2-CPU machine,
the same pure-Python work ran at two speeds about 1.8x apart, switching
every few seconds, so raw medians moved 20-45% between otherwise identical
runs. While a run is timed, a 20 Hz interval timer runs a fixed
pure-Python kernel from a signal handler, which executes in the benchmark's
own thread between bytecodes. It records how long the kernel took. A timing
over [start, end] is then multiplied by ``REFERENCE_KERNEL_S`` divided by
the mean kernel time recorded in that interval, widened by ``WINDOW_S`` on
each side. Kernel runs that took more than twice the median of that window
were most likely preempted, and they are left out of the mean. What is
reported is time at the reference speed, at which the kernel takes
``REFERENCE_KERNEL_S``. The kernel adds under 0.5% to every timing,
equally on every commit. It shares no code with hglattice, so a change to
the program moves the scaled time exactly as it moves the raw time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
WINDOW_S = 0.25
# Kernel time in a run on a 2-CPU Xeon host in its fast phase; only the
# unit of the scaled timings depends on it.
REFERENCE_KERNEL_S = 100e-6


def kernel() -> int:
    """Fixed pure-Python work: bit operations on 1200-bit ints, the kind of
    arithmetic hglattice's bit vectors do. Of the kernels tried, this one
    tracked the program's slowdowns best."""
    acc = 0
    x = (1 << 1200) - 12345
    for i in range(230):
        acc += ((x >> (i % 700)) & (x << (i % 300))).bit_count()
    return acc


class SpeedSampler:
    """Context manager that samples the kernel's run time at 20 Hz."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.kernel_s.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a raw duration over [start, end] into time at
        the reference speed (1.0 when no kernel time was recorded)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        ks = self.kernel_s[lo:hi] or self.kernel_s[max(0, lo - 1):lo + 1]
        if not ks:
            return 1.0
        # One preempted run of about 1 ms among the ~50 of a 2 s interval
        # would otherwise raise the mean by a fifth.
        limit = 2 * statistics.median(ks)
        return REFERENCE_KERNEL_S / statistics.fmean(k for k in ks if k <= limit)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
