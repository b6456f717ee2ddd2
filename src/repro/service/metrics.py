"""Service metrics: latency histograms, gauges, counters.

Dependency-free and thread-safe (one lock around every mutation — the
scheduler worker, the server loop, and stats readers all touch these).
Histograms use fixed log-spaced bucket bounds so snapshots are stable
and comparable across runs; percentiles are estimated from the bucket
upper bounds, which is the usual Prometheus-style trade-off.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = ["LatencyHistogram", "ServiceMetrics"]

#: Upper bounds (seconds) of the latency buckets: 100us .. ~105s, with
#: a +inf overflow bucket at the end.
_BOUNDS = tuple(0.0001 * (2 ** i) for i in range(21))


class LatencyHistogram:
    """Fixed-bucket latency histogram over seconds."""

    def __init__(self) -> None:
        self.counts = [0] * (len(_BOUNDS) + 1)
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(_BOUNDS, seconds)] += 1
        self.total += 1
        self.sum_s += seconds
        self.max_s = max(self.max_s, seconds)

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the ``p``-th percentile."""
        if not self.total:
            return 0.0
        rank = p / 100.0 * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                return _BOUNDS[i] if i < len(_BOUNDS) else self.max_s
        return self.max_s

    def snapshot(self) -> dict:
        mean = self.sum_s / self.total if self.total else 0.0
        return {
            "count": self.total,
            "mean_s": round(mean, 6),
            "max_s": round(self.max_s, 6),
            "p50_s": round(self.percentile(50), 6),
            "p99_s": round(self.percentile(99), 6),
        }


class ServiceMetrics:
    """All service counters in one place; ``snapshot()`` is the wire form."""

    PHASES = ("wait", "parse", "prepare", "allocate", "total")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latency = {phase: LatencyHistogram() for phase in self.PHASES}
        self.counters = {
            "requests_total": 0,
            "responses_ok": 0,
            "responses_error": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "degraded_total": 0,
            "deadline_misses": 0,
            "rejected_total": 0,
            "batches_total": 0,
            "worker_deadline_kills": 0,
            "delta_requests": 0,
            "session_hits": 0,
            "session_misses": 0,
            "session_patches_value": 0,
            #: struct edits whose prepared body only renamed webs: the
            #: retained allocation carried over whole
            "session_patches_rename": 0,
            "session_rebuilds": 0,
            #: functions whose allocation started from a retained
            #: round-0 coloring (value edits round 0 cannot see)
            "session_colorings_reused": 0,
        }
        self.queue_depth = 0
        self.queue_depth_max = 0
        #: accumulated allocator phase profile (path -> {s, calls}) from
        #: :func:`repro.profiling` snapshots of executed requests
        self.alloc_phases: dict[str, dict] = {}
        #: latest :meth:`repro.exec.WorkerPool.snapshot` (counters plus
        #: per-worker pid/liveness/job tallies); empty when serving
        #: in-process (jobs=1)
        self.worker_pool: dict = {}

    def observe(self, phase: str, seconds: float) -> None:
        with self._lock:
            self.latency[phase].observe(seconds)

    def record_phases(self, snapshot: dict) -> None:
        """Fold one :meth:`repro.profiling.Profiler.snapshot` in."""
        with self._lock:
            for path, entry in snapshot.items():
                slot = self.alloc_phases.setdefault(
                    path, {"s": 0.0, "calls": 0}
                )
                slot["s"] += entry["s"]
                slot["calls"] += entry["calls"]

    def inc(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self.counters[counter] += by

    def set_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth
            self.queue_depth_max = max(self.queue_depth_max, depth)

    def set_worker_pool(self, snapshot: dict) -> None:
        """Publish the scheduler pool's latest state snapshot."""
        with self._lock:
            self.worker_pool = snapshot

    @property
    def cache_hit_ratio(self) -> float:
        hits = self.counters["cache_hits"]
        total = hits + self.counters["cache_misses"]
        return hits / total if total else 0.0

    @property
    def session_hit_ratio(self) -> float:
        hits = self.counters["session_hits"]
        total = hits + self.counters["session_misses"]
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counters": dict(self.counters),
                "cache_hit_ratio": round(self.cache_hit_ratio, 4),
                "session_hit_ratio": round(
                    self.counters["session_hits"]
                    / (self.counters["session_hits"]
                       + self.counters["session_misses"])
                    if (self.counters["session_hits"]
                        + self.counters["session_misses"]) else 0.0, 4),
                "queue_depth": self.queue_depth,
                "queue_depth_max": self.queue_depth_max,
                "latency": {
                    phase: hist.snapshot()
                    for phase, hist in self.latency.items()
                },
                "alloc_phases": {
                    path: {"s": round(entry["s"], 6),
                           "calls": entry["calls"]}
                    for path, entry in self.alloc_phases.items()
                },
                "worker_pool": dict(self.worker_pool),
            }
