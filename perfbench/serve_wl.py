"""``serve``: a warm compile server under two closed-loop clients.

One op is one ``allocate`` request for a class of 2-4 seeded functions
(allocator ``full``, 24 registers) sent to a separate ``repro serve
--jobs 2`` process with an empty in-memory cache.  About four requests
in five repeat an earlier one, so cache hits (``service``
parse/fingerprint, scheduler queueing, protocol) run beside misses that
go through ``pipeline``/``analysis``/``core`` on the ``exec`` pool.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.ir.printer import print_module
from repro.target.presets import make_machine

from common import (
    Tally,
    check_allocation,
    parse_allocated,
    code_instrs,
    counter_delta,
    median,
    metric,
    peak_rss_mb,
    percentile,
)
from schedule import interp_args, serve_class, serve_schedule
from server import RequestTooLarge, Server
from speed import BackgroundProbe
from tracer import Node

REGS = 24
SETUP_REPEATS = 5
#: requests generated per run; a run that exhausts them stops early
SCHEDULE_LENGTH = 2400
#: the quality sums cover classes 0..QUALITY_CLASSES-1, which every run
#: allocates (sent untimed after the window if the window missed any)
QUALITY_CLASSES = 48
#: warm-up class index, far outside the schedule's range
WARM_CLASS = 10 ** 6


def request(rid: str, ir: str) -> dict:
    return {"type": "allocate", "protocol": 2, "id": rid, "ir": ir,
            "allocator": "full",
            "machine": {"regs": REGS, "has_paired_loads": True},
            "options": {"verify": True}}


def start_server(warm_ir: str) -> tuple[Server, float]:
    """Spawn, first ``pong``, then one multi-function request so the
    lazy worker pool is up; returns the server and that set-up time."""
    t0 = perf_counter()
    server = Server(jobs=2)
    try:
        server.start()
        conn = server.connect()
        try:
            reply = conn.request(request("warm", warm_ir))
        finally:
            conn.close()
        if not reply.get("ok"):
            raise RuntimeError(f"warm-up request failed: {reply}")
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - t0


def setup(warm_ir: str) -> tuple[Server, list[float]]:
    """Set the server up several times; the last one serves the run.
    Times are scaled to the reference speed."""
    spans = []
    with BackgroundProbe() as track:
        for i in range(SETUP_REPEATS):
            t0 = perf_counter()
            server, seconds = start_server(warm_ir)
            spans.append((t0, t0 + seconds))
            if i + 1 < SETUP_REPEATS:
                server.stop()
    return server, [(t1 - t0) * track.scale(t0, t1) for t0, t1 in spans]


def _client(server: Server, texts, schedule, cursor, deadline, out) -> None:
    """Closed loop: send the next scheduled request once a reply is in."""
    conn = server.connect()
    try:
        while perf_counter() < deadline:
            with cursor["lock"]:
                n = cursor["next"]
                cursor["next"] += 1
            if n >= len(schedule):
                return
            cls = schedule[n]
            t0 = perf_counter()
            try:
                reply = conn.request(request(f"r{n}", texts[cls]))
            except RequestTooLarge as err:
                reply = {"ok": False, "error": f"request too large: {err}"}
            t1 = perf_counter()
            out.append((n, cls, t1 - t0, reply, (t0, t1)))
    finally:
        conn.close()


def _window(server, texts, schedule, seconds):
    """Both clients until ``seconds`` pass, with a background speed
    probe.  Returns ``[(n, class, latency_s, reply)]`` in schedule
    order, the latencies scaled to the reference speed, and the wall
    time scaled likewise."""
    cursor = {"next": 0, "lock": threading.Lock()}
    results: list = []
    errors = []
    with BackgroundProbe() as track:
        start = perf_counter()
        deadline = start + seconds

        def second_client() -> None:
            try:
                _client(server, texts, schedule, cursor, deadline, results)
            except BaseException as err:  # reported by the main thread
                errors.append(err)

        thread = threading.Thread(target=second_client, name="client-1")
        thread.start()
        try:
            _client(server, texts, schedule, cursor, deadline, results)
        finally:
            thread.join()
        wall = perf_counter() - start
    if errors:
        raise errors[0]
    results.sort(key=lambda r: r[0])
    scaled = [r[2] * track.scale(*r[4]) for r in results]
    return [r[:4] for r in results], scaled, wall * track.run_scale()


def _check(results, modules, seed, tally) -> dict:
    """Per-class checks outside the timed window.

    Returns ``class -> (reply, code_instrs)`` for every class that got
    a good allocation.
    """
    machine = make_machine(REGS)
    first: dict[int, dict] = {}
    for n, cls, _, reply in results:
        if not reply.get("ok"):
            tally.fail("error", reply.get("error", ""))
            continue
        if reply.get("degraded"):
            tally.fail("degraded", f"r{n}")
            continue
        seen = first.setdefault(cls, reply)
        if reply["result_digest"] != seen["result_digest"]:
            tally.fail("digest", f"r{n}: class {cls} changed digest")
    checked = {}
    for cls, reply in first.items():
        source = modules[cls].functions
        allocated = parse_allocated(reply["code"], source, machine)
        if [f.name for f in allocated] != [f.name for f in source]:
            tally.fail("interp", f"class {cls}: functions differ")
            continue
        for src, got in zip(source, allocated):
            problem = check_allocation(src, got, machine,
                                       interp_args(src, seed, src.name))
            if problem is not None:
                tally.fail(problem.split(":")[0], f"{src.name}: {problem}")
        checked[cls] = (reply, sum(code_instrs(f) for f in allocated))
    return checked


def _pool_delta(before: dict, after: dict, key: str) -> int:
    b = before["metrics"]["worker_pool"].get("counters", {}).get(key, 0)
    a = after["metrics"]["worker_pool"].get("counters", {}).get(key, 0)
    return a - b


def run(seed: int, seconds: float, trace: bool, tally: Tally):
    schedule = serve_schedule(seed, SCHEDULE_LENGTH)
    n_classes = max(schedule) + 1
    modules = [serve_class(i) for i in range(n_classes)]
    texts = [print_module(m) for m in modules]
    warm_ir = print_module(serve_class(WARM_CLASS))
    info = {"classes_generated": n_classes,
            "max_request_bytes": max(len(t) for t in texts)}

    server, setup_times = setup(warm_ir)
    try:
        before = server.stats()
        results, lat, wall = _window(server, texts, schedule, seconds)
        after = server.stats()
        rss_mb = peak_rss_mb(server.pids(after))
        # Quality classes the window never reached, sent untimed.
        reached = {cls for _, cls, _, _ in results}
        extra = []
        conn = server.connect()
        try:
            for cls in range(QUALITY_CLASSES):
                if cls not in reached:
                    extra.append((-1, cls, 0.0,
                                  conn.request(request(f"q{cls}",
                                                       texts[cls]))))
        finally:
            conn.close()
    finally:
        server.stop()

    tally.attempted = len(results)
    checked = _check(results + extra, modules, seed, tally)
    hits = [r[2] for r in results if r[3].get("cached")]
    misses = [r[2] for r in results if r[3].get("ok")
              and not r[3].get("cached")]
    info.update(samples=len(lat), hits=len(hits), misses=len(misses),
                unscaled_op_p50_ms=percentile([r[2] for r in results],
                                              50) * 1e3,
                setup_runs_s=setup_times,
                untimed_quality_requests=len(extra))
    if not trace:
        quality = [checked[c] for c in range(QUALITY_CLASSES)
                   if c in checked]
        if len(quality) < QUALITY_CLASSES:
            tally.fail("error", "a quality class got no allocation")
        return {
            "setup_s": metric(median(setup_times), "s"),
            "op_p50_ms": metric(percentile(lat, 50) * 1e3, "ms"),
            "op_p90_ms": metric(percentile(lat, 90) * 1e3, "ms"),
            "ops_per_s": metric(len(lat) / wall, "1/s"),
            "peak_rss_mb": metric(rss_mb, "MiB"),
            "op_ok_ratio": metric(1 - tally.failed / len(lat), "ratio"),
            **quality_metrics(quality),
        }, info

    timing = _timing_sums(results)
    tree = _phase_tree(results, timing)
    info["phase_tree"] = tree.export()
    return {
        "service.wait_s": metric(timing["wait_s"], "s"),
        "service.parse_s": metric(timing["parse_s"], "s"),
        "service.prepare_s": metric(timing["prepare_s"], "s"),
        "service.allocate_s": metric(timing["allocate_s"], "s"),
        "op.total_s": metric(tree.child("op").total, "s"),
        "op.unattributed_s": metric(tree.child("op").self_time, "s"),
        "service.unattributed_s": metric(
            tree.child("op").self_time, "s"),
        "cache.hit_ratio": metric(len(hits) / max(1, len(lat)), "ratio"),
        "cache.hit_p50_ms": metric(percentile(hits, 50) * 1e3
                                   if hits else 0.0, "ms"),
        "cache.miss_p50_ms": metric(percentile(misses, 50) * 1e3
                                    if misses else 0.0, "ms"),
        "exec.jobs_ok": metric(_pool_delta(before, after, "jobs_ok"),
                               "count"),
        "exec.retries": metric(_pool_delta(before, after, "retries"),
                               "count"),
        "exec.respawns": metric(_pool_delta(before, after, "respawns"),
                                "count"),
        "scheduler.queue_depth_max": metric(
            after["metrics"]["queue_depth_max"], "count"),
        "scheduler.degraded": metric(
            counter_delta(before, after, "degraded_total"), "count"),
        "scheduler.rejected": metric(
            counter_delta(before, after, "rejected_total"), "count"),
    }, info


TIMING_KEYS = ("wait_s", "parse_s", "prepare_s", "allocate_s", "total_s")


def _timing_sums(results) -> dict:
    sums = dict.fromkeys(TIMING_KEYS, 0.0)
    for _, _, _, reply in results:
        for key in TIMING_KEYS:
            sums[key] += reply.get("timings", {}).get(key, 0.0)
    return sums


def _phase_tree(results, timing: dict) -> Node:
    """Client latency > server total > scheduler phases, per op summed."""
    root = Node("run")
    op = root.child("op")
    op.add(sum(r[2] for r in results), len(results))
    total = op.child("service.total")
    total.add(timing["total_s"], len(results))
    for key in ("wait_s", "parse_s", "prepare_s", "allocate_s"):
        total.child("service." + key[:-2]).add(timing[key])
    root.add(op.total, 1)
    return root


def quality_metrics(checked) -> dict:
    """Deterministic code-quality sums over distinct allocations."""
    return {
        "sim_cycles": metric(sum(r["cycles"]["total"] for r, _ in checked),
                             "cycles"),
        "code_instrs": metric(sum(n for _, n in checked), "count"),
        "moves_eliminated": metric(sum(r["stats"]["moves_eliminated"]
                                       for r, _ in checked), "count"),
    }
