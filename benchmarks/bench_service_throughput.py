"""Closed-loop load generator for the allocation service.

Starts an in-process LDJSON TCP server, then drives it with ``--clients``
concurrent closed-loop clients (each submits its next request as soon as
the previous response lands) over a mixed request schedule: every
(benchmark, allocator) pair in the sweep, repeated round-robin, so later
laps exercise the content-addressed cache the way a warm production
server would.  The JSON report carries end-to-end client latency
percentiles (p50/p99, measured exactly from the recorded samples, not
histogram buckets), throughput, and the server's own cache/degradation
counters.

Run the full bench or the CI smoke variant::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py \
        --out BENCH_service_throughput.json
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke
"""

import argparse
import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.regalloc import AllocationOptions
from repro.service import (
    AllocationRequest,
    MachineSpec,
    ResultCache,
    Scheduler,
    ServerThread,
    ServiceClient,
    ServiceMetrics,
)

DEFAULT_BENCHES = ["db", "jack"]
DEFAULT_ALLOCATORS = ["chaitin", "briggs", "full"]


def percentile(samples: list, p: float) -> float:
    """Exact percentile (nearest-rank) of the recorded samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, round(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def build_schedule(benches, allocators, requests, regs) -> list:
    """``requests`` requests cycling the (bench, allocator) grid."""
    grid = [(b, a) for b in benches for a in allocators]
    schedule = []
    for i in range(requests):
        bench, allocator = grid[i % len(grid)]
        schedule.append(AllocationRequest(
            id=f"load-{i}",
            bench=bench,
            allocator=allocator,
            machine=MachineSpec(regs=regs),
        ))
    return schedule


def drive(host, port, schedule, clients):
    """Closed-loop clients draining one shared schedule; returns samples."""
    latencies = []
    errors = []
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))

    def worker():
        client = ServiceClient(host, port, timeout=120.0)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            start = time.perf_counter()
            response = client.allocate(schedule[i])
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)
                if not response.ok:
                    errors.append(response.error)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies, errors, time.perf_counter() - start


def run(benches, allocators, requests, clients, regs, jobs) -> dict:
    metrics = ServiceMetrics()
    scheduler = Scheduler(cache=ResultCache(max_entries=512),
                          metrics=metrics,
                          options=AllocationOptions(jobs=jobs),
                          max_queue=max(64, requests))
    server = ServerThread(scheduler)
    host, port = server.start()
    try:
        schedule = build_schedule(benches, allocators, requests, regs)
        latencies, errors, wall_s = drive(host, port, schedule, clients)
        stats = ServiceClient(host, port).stats()
    finally:
        server.stop()
    counters = stats["metrics"]["counters"]
    return {
        "benches": benches,
        "allocators": allocators,
        "requests": requests,
        "clients": clients,
        "regs": regs,
        "jobs": jobs,
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "hostname": socket.gethostname(),
        "wall_s": round(wall_s, 4),
        "throughput_rps": round(len(latencies) / wall_s, 2) if wall_s else 0,
        "latency": {
            "mean_s": round(sum(latencies) / len(latencies), 6)
            if latencies else 0.0,
            "p50_s": round(percentile(latencies, 50), 6),
            "p99_s": round(percentile(latencies, 99), 6),
            "max_s": round(max(latencies), 6) if latencies else 0.0,
        },
        "cache_hit_ratio": stats["metrics"]["cache_hit_ratio"],
        "cache": stats.get("cache", {}),
        "degraded_total": counters["degraded_total"],
        "rejected_total": counters["rejected_total"],
        "errors": len(errors),
        "error_samples": errors[:5],
    }


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benches", nargs="*", default=DEFAULT_BENCHES)
    parser.add_argument("--allocators", nargs="*",
                        default=DEFAULT_ALLOCATORS)
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--regs", type=int, default=16)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized run (24 requests, 2 clients)")
    parser.add_argument("--out", default="BENCH_service_throughput.json",
                        help="report path")
    args = parser.parse_args(argv)

    if args.smoke:
        args.requests, args.clients = 24, 2
    report = run(args.benches, args.allocators, args.requests,
                 args.clients, args.regs, args.jobs)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{report['requests']} requests, {report['clients']} clients: "
          f"{report['throughput_rps']} req/s, "
          f"p50 {report['latency']['p50_s'] * 1e3:.1f}ms, "
          f"p99 {report['latency']['p99_s'] * 1e3:.1f}ms, "
          f"cache hit ratio {report['cache_hit_ratio']:.2f}, "
          f"errors {report['errors']}")
    print(f"wrote {args.out}")
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
