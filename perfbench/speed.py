"""Machine-speed probe for the end-to-end times.

On a shared machine the speed of one CPU drifts by tens of percent over
seconds to minutes, so identical work can read 2.6 s in one case and
4.9 s a minute later. While a timed interval runs, the probe interrupts
the program every ``interval`` seconds with SIGALRM (no thread) and times
a fixed piece of pure-Python reference work. An interval's time is then
reported at reference speed:

    (wall time - probe time) * REFERENCE_S / mean reference-work time

that is, as if one reference sample had taken REFERENCE_S, with the mean
taken over the samples inside that interval. The probe costs about 0.5%
of the interval. On identical lattice-degenerate cases
the case-to-case spread fell from 19% of the mean (wall time) to 5%
(reference speed), with a correlation of 0.97 between the two timings.
"""

import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 1e-4  # one reference sample at reference speed


def reference_work():
    """Fixed float, tuple and dict work, about 0.1 ms in CPython."""
    acc = 0.0
    table = {}
    for i in range(300):
        x = (i * 0.618033988749895) % 1.0
        table[i & 31] = (x, acc)
        acc += math.hypot(x - 0.5, acc % 1.0)
    return acc


class SpeedProbe:
    """Context manager that samples the reference work while it is open."""

    def __init__(self, interval=0.02):
        self.interval = interval
        self.starts = []  # perf_counter at each sample start
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_work()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, start, end):
        lo, hi = bisect_left(self.starts, start), bisect_right(self.starts, end)
        return self.durations[lo:hi]

    def speed_factor(self, start, end):
        """REFERENCE_S over the mean reference-work time of the samples
        taken in [start, end], or of all samples so far when it holds
        fewer than five."""
        inside = self._inside(start, end)
        if len(inside) < 5:
            inside = self.durations
        if not inside:
            raise RuntimeError("no speed sample was taken; the interval is too short")
        return REFERENCE_S * len(inside) / sum(inside)

    def at_reference_speed(self, start, end, factor):
        """Seconds the interval [start, end] takes at reference speed: its
        wall time without the probe's own samples, times factor."""
        return (end - start - sum(self._inside(start, end))) * factor
