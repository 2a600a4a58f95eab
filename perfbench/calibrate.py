#!/usr/bin/env python3
"""Host-speed calibration: a fixed pure-Python loop timed next to the work.

The host's speed changes under other tenants' load, in phases from
milliseconds to minutes long, and a slow phase slows every process alike.
The time per iteration of a fixed loop says how fast the host was at that
moment.  A time multiplied by `host_factor` of the loops taken next to it is
the time the same work takes at the reference speed, REFERENCE_ITERATION_S
per iteration.  The module imports only `sys`, `time`, `bisect` and
`signal`, so the import probe below leaves the rest to `import ionet`.

    python3 perfbench/calibrate.py SRC_DIR

imports ionet from SRC_DIR in this fresh interpreter and prints the import
time at the reference speed.
"""
from __future__ import annotations

import bisect
import signal
import sys
import time

# The loop's time per iteration on a 2-vCPU Intel Xeon VM (CPython 3.11)
# in its fast phases.
REFERENCE_ITERATION_S = 450e-9
LOOP_ITERATIONS = 500           # about 0.23 ms
SAMPLE_INTERVAL_S = 0.02
SAMPLE_WINDOW_S = 0.1           # samples this close to a query calibrate it
SAMPLE_MIN = 5                  # the window widens until it holds this many


def calibration_loop():
    """Seconds per iteration of a fixed pure-Python loop: the host's speed
    now.  Like the library, it hashes small frozensets and tuples into a
    small dict and does integer arithmetic."""
    t0 = time.perf_counter()
    seen = {}
    x = 0
    for i in range(LOOP_ITERATIONS):
        x = (x * 31 + i) % 1_000_003
        key = frozenset((i & 15, (i >> 4) & 7))
        seen[key] = seen.get(key, 0) + x
    return (time.perf_counter() - t0) / LOOP_ITERATIONS


def host_factor(loops):
    """REFERENCE_ITERATION_S over the mean of the fastest four fifths of
    `loops` (seconds per iteration).  The slowest fifth is left out, because
    a loop that the scheduler interrupts reads many times too slow."""
    kept = sorted(loops)[:len(loops) - len(loops) // 5]
    return REFERENCE_ITERATION_S * len(kept) / sum(kept)


def timed(fn):
    """fn()'s result and its time at the reference speed."""
    with HostSampler() as host:
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        host.settle(t0 + seconds)
    return result, host.calibrated(t0, seconds)


class HostSampler:
    """While installed, times a short calibration loop every
    SAMPLE_INTERVAL_S of wall time, from a SIGALRM handler in this thread,
    so that long queries are calibrated by samples taken while they run."""

    def __init__(self):
        self.starts, self.spent, self.loops = [], [], []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        loop = calibration_loop()
        self.starts.append(t0)
        self.loops.append(loop)
        self.spent.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = (signal.signal(signal.SIGALRM, self._sample),
                          signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                                           SAMPLE_INTERVAL_S))
        return self

    def __exit__(self, *exc):
        handler, timer = self._previous
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, *timer)

    def settle(self, end):
        """Wait until the samples reach SAMPLE_WINDOW_S past `end`."""
        give_up = time.perf_counter() + 1.0 + SAMPLE_WINDOW_S
        while not self.starts or self.starts[-1] < end + SAMPLE_WINDOW_S:
            if time.perf_counter() > give_up:
                raise RuntimeError("perfbench: no calibration samples arrive")
            time.sleep(SAMPLE_INTERVAL_S)

    def calibrated(self, start, seconds):
        """A query's time at the reference speed: its measured `seconds`
        from `start`, less the samples taken inside it, times the host
        factor of the samples within SAMPLE_WINDOW_S of it."""
        end = start + seconds
        lo, hi = (bisect.bisect_left(self.starts, start),
                  bisect.bisect_left(self.starts, end))
        seconds -= sum(self.spent[lo:hi])
        window = SAMPLE_WINDOW_S
        while True:
            lo = bisect.bisect_left(self.starts, start - window)
            hi = bisect.bisect_left(self.starts, end + window)
            if hi - lo >= SAMPLE_MIN or hi - lo == len(self.starts):
                return seconds * host_factor(self.loops[lo:hi])
            window *= 2


def _import_ionet():
    import ionet
    return ionet


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    print(timed(_import_ionet)[1])
