"""Host speed, sampled while the benchmark runs.

On a shared host the speed of one vCPU swings by up to 2x within
seconds: on the 2-vCPU host this benchmark was built on, a fixed loop
took 1.85 ms in some 0.2 s windows and 3.5 ms in the next.  Raw times of
one pass then differ by 10-20 % from run to run.  So a SIGPROF handler
times a short fixed loop every PERIOD_S of process CPU time, and each
report's CPU time is scaled by REFERENCE_S over the mean loop time
during the report: its time at one fixed reference speed.  The loop
shares the core's caches and the allocator with the report, so the
scale also moves with what the report does (README.md gives the size).
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# reference_loop() on that host at its usual unloaded speed, so that
# reference seconds are about seconds there.
REFERENCE_S = 0.00025
# A report shorter than a few periods is scaled by the nearest samples.
MIN_SAMPLES = 5


def reference_loop():
    """Small Fraction arithmetic, the kind of work sgen2 does."""
    x = Fraction(0)
    for i in range(1, 25):
        x = (x + Fraction(i, i + 1)) * Fraction(i + 1, i + 2) - i // 2
    return x


class SpeedSampler:
    """While entered, samples the speed every PERIOD_S of CPU time."""

    def __init__(self):
        self.ends = []        # thread_time() at the end of each sample
        self.lengths = []     # CPU seconds of each reference_loop()
        self.spent = 0.0      # CPU seconds spent sampling

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self):
        return time.thread_time(), self.spent

    def since(self, mark):
        """(CPU seconds since mark less the time spent sampling, the
        thread_time() interval) for scale()."""
        start, spent = mark
        end = time.thread_time()
        return end - start - (self.spent - spent), (start, end)

    def _sample(self, signum, frame):
        start = time.thread_time()
        reference_loop()
        end = time.thread_time()
        self.ends.append(end)
        self.lengths.append(end - start)
        self.spent += end - start

    def scale(self, start, end):
        """Factor from CPU seconds to reference seconds for the
        thread_time() interval start..end: REFERENCE_S over the mean
        sample in it, widened to the MIN_SAMPLES nearest samples."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            if lo > 0:
                lo -= 1
            if hi < len(self.ends) and hi - lo < MIN_SAMPLES:
                hi += 1
        if hi == lo:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.lengths[lo:hi])
