"""The machine's current speed, from a fixed probe timed alongside the steps.

The benchmark's host is shared: a fixed pure-Python loop runs anywhere from
1.0 to 1.7 times its best time from one few-second window to the next, and
whole minutes can sit at either end.  Wall times taken as they come would
measure the neighbours.  So while the steps run, a SIGPROF timer runs
``probe`` every ``INTERVAL_S`` of CPU time; a step's time is scaled by
PROBE_REF_S over the probe's mean time around that step, and reads as
seconds at the speed where one probe takes PROBE_REF_S.  The probe's own
time is taken out of the step it interrupted.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PROBE_REF_S = 0.00085    # the probe's time on an idle host of the reference VM
INTERVAL_S = 0.05        # CPU seconds between probes (probe overhead about 2%)
WINDOW_S = 0.25          # probes this long before a step also describe it


def probe() -> int:
    """Fixed interpreter work of the kinds the program does: tuples, dict
    updates, list appends and a keyed sort.  The collector is off while it
    runs, or its allocations would start collections of the program's heap
    and the probe would time those."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        counts = {}
        rows = []
        for i in range(3000):
            row = (i, i * 7 % 13, i ^ 5)
            counts[row[1]] = counts.get(row[1], 0) + row[0]
            rows.append(row)
        rows.sort(key=lambda r: r[2])
        return len(rows) + len(counts)
    finally:
        if enabled:
            gc.enable()


def probe_time(n: int = 15) -> float:
    """Median time of n probes run back to back."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Runs the probe from a SIGPROF handler while started."""

    def __init__(self):
        self.starts = []        # perf_counter at each probe's start
        self.times = []         # each probe's duration
        self.overhead = 0.0     # total time spent in probes
        self.on_probe = None    # called with each probe's duration

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(dt)
        self.overhead += dt
        if self.on_probe is not None:
            self.on_probe(dt)

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the mean probe time from WINDOW_S before t0 to t1
        (or the last three probes before t0 if none fall in that span)."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1)
        times = self.times[lo:hi] or self.times[max(0, lo - 3):lo]
        return PROBE_REF_S / statistics.fmean(times)
