"""The host's speed, sampled during a run, so times can be reported at reference speed.

On a shared 2-core virtual machine (x86-64 Linux), the speed of plain
Python code drifts by up to a factor of 1.8 within a minute, in phases that
last from one to twenty seconds; raw wall times of one op repeated for a
minute spread by 60 % between their quartiles.  So the run takes speed
samples (a fixed pure-Python task, timed in thread CPU time):

- on the working thread right before and after each op, and after each
  corpus fixture inside verify's pool;
- every PERIOD_S on a side thread, so that long ops have samples inside.

An interval of wall time is reported as

    raw seconds * REFERENCE_S / (time-weighted mean task time in the interval)

which is the time it would have taken at the speed where the task takes
REFERENCE_S.  A sample holds the interpreter lock for about 2.5 ms.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time

REFERENCE_S = 0.0025
PERIOD_S = 0.25
_EDGE_S = 0.02  # samples this close to an interval's ends belong to it


def calibrate() -> float:
    """CPU seconds this thread needs for a fixed pure-Python task.

    Thread CPU time leaves out waits for the interpreter lock.  The collector
    is off meanwhile, so the size of qqkit's heap cannot slow the task down
    and make the program look faster.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        d: dict = {}
        for i in range(8000):
            k = (i % 97, i % 13)
            d[k] = d.get(k, 0) + i
        sorted(d.items())
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Speed samples of one run; a context manager that runs the side sampler."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (perf_counter at middle, task seconds)
        self._times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-speed", daemon=True)

    def sample(self, reps: int = 1) -> float:
        """Take one sample (median of reps) on the calling thread.

        Returns the CPU seconds it took, the time it held the interpreter lock.
        """
        start = time.perf_counter()
        costs = [calibrate() for _ in range(reps)]
        self._samples.append(((start + time.perf_counter()) / 2, statistics.median(costs)))  # one append: thread-safe
        return sum(costs)

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def __enter__(self) -> "Speed":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()
        self._samples.sort()
        self._times = [t for t, _ in self._samples]

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the time-weighted mean task time in [t0, t1].

        Each sample stands for the part of the interval nearer to it than to
        its neighbours, so a burst of samples does not outweigh a long stretch
        with few.  Without samples inside, the two nearest ones count.  Call
        after the context has exited.
        """
        i = bisect.bisect_left(self._times, t0 - _EDGE_S)
        j = bisect.bisect_right(self._times, t1 + _EDGE_S)
        inside = self._samples[i:j]
        if len(inside) < 2:
            inside = self._samples[max(i - 1, 0) : j + 1]
            return REFERENCE_S / statistics.mean(c for _, c in inside)
        times = [t for t, _ in inside]
        edges = [t0] + [(a + b) / 2 for a, b in zip(times, times[1:])] + [t1]
        weights = [max(hi - lo, 0.0) for lo, hi in zip(edges, edges[1:])]
        if not sum(weights):
            return REFERENCE_S / statistics.mean(c for _, c in inside)
        return REFERENCE_S * sum(weights) / sum(w * c for w, (_, c) in zip(weights, inside))
