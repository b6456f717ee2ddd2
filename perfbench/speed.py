"""Host-speed normalisation of op latencies.

A shared host runs the same Python code up to ~1.5x slower at times, in
stretches from a fraction of a second to minutes.  A fixed pure-Python
probe is timed next to the ops; each op's latency is scaled by
``REFERENCE_PROBE_S / probe time`` around it, which gives its latency at
the speed where one probe takes ``REFERENCE_PROBE_S``.  The probe is
benchmark code, so a change to the program moves the scaled latency as
much as the raw one; only the host's speed drops out.
"""

from __future__ import annotations

import gc
import os
import threading
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

#: the probe's time at the reference speed (about its fast-host time)
REFERENCE_PROBE_S = 0.3e-3


def probe() -> float:
    """Seconds the fixed kernel takes now (collector off: the program's
    heap must not leak into it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        counts: dict = {}
        items = []
        for i in range(1500):
            key = i % 97
            counts[key] = counts.get(key, 0) + 1
            items.append((key, i))
        items.sort()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedTrack:
    """Probe samples over a window, as ``(midpoint, seconds)``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t0 = perf_counter()
        took = probe()
        self.samples.append((t0 + took / 2, took))

    def scale(self, t0: float, t1: float) -> float:
        """Reference-speed factor for work done in ``[t0, t1]``: the mean
        of the probes inside it and the nearest one on each side."""
        times = [t for t, _ in self.samples]
        lo = max(0, bisect_left(times, t0) - 1)
        hi = min(len(times), bisect_right(times, t1) + 1)
        near = [took for _, took in self.samples[lo:hi]]
        if not near:
            raise ValueError("no probe sample near the interval")
        return REFERENCE_PROBE_S * len(near) / sum(near)

    def run_scale(self) -> float:
        """Reference-speed factor for the whole window."""
        return self.scale(self.samples[0][0], self.samples[-1][0])


class BackgroundProbe(SpeedTrack):
    """Samples every ``period`` seconds on each CPU this thread may use,
    from one pinned thread per CPU, for windows whose ops run in other
    processes on any of them; use as a context manager."""

    def __init__(self, period: float = 0.02) -> None:
        super().__init__()
        self.period = period
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu,),
                             name=f"speed-probe-{cpu}", daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))]

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})    # this thread only
        while True:
            self.sample()
            if self._stop.wait(self.period):
                return

    def __enter__(self) -> "BackgroundProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self.samples.sort()


@contextmanager
def one_cpu():
    """Pin this process, and every process it starts meanwhile, to one
    CPU, so probes in this process see the speed the ops ran at."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
