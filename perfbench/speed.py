"""CPU speed probe for timing on a shared host.

On a shared host the speed of a CPU drifts by 10-40% over seconds to
minutes, so two timings of the same code disagree by more than the
regressions the benchmark must catch.  SpeedProbe times a fixed
pure-Python loop every PROBE_PERIOD_S in a thread of the measured
process.  The process is pinned to one CPU and the loop holds the
interpreter lock while it runs, so each sample measures the CPU the
measured code runs on, at that moment.  A wall time multiplied by the
mean relative speed over its interval is the time the same work takes
at nominal speed.  The probe costs about 1.5% of the measured time.

Imports nothing heavy, so it can time `import descent3` itself.
"""

import math
import os
import threading
import time

PROBE_PERIOD_S = 0.05
PROBE_NOMINAL_S = 8.0e-4        # loop time that counts as speed 1.0


def _probe_loop():
    # small-int and big-int arithmetic, like the program's own hot loops
    total = 0
    for i in range(4000):
        total += i * i
    for i in range(1000):
        t = 4 * (i + 10**6) ** 3 - 48035713
        total += math.isqrt(t) & 1
    return total


def pin_to_one_cpu():
    """Pin the calling thread, and every thread it starts afterwards, to
    one CPU.  Returns the CPU set it had before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


class SpeedProbe:
    """Context manager that samples the CPU speed while it is open."""

    def __init__(self):
        self.samples = []           # (start, duration)
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._halt.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            _probe_loop()
            self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._halt.set()
        self._thread.join()

    def speed(self, start, end):
        """Mean speed relative to nominal over [start, end)."""
        rel = [PROBE_NOMINAL_S / d for t, d in self.samples if start <= t < end]
        if not rel:
            raise RuntimeError("no speed sample inside the measured interval")
        return sum(rel) / len(rel)
