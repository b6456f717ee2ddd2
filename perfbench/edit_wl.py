"""``edit``: an editor's loop on a live edit chain.

One op is one ``allocate_delta`` request (allocator ``full``, 24
registers) carrying the next version of a one-function spill-stress
module (~30 KB of IR), sent by one client to ``repro serve --jobs 2``.
Value and structural edits mix about 3:1.  The session layer diffs and
patches its retained analyses (``analysis.incremental`` used for edits
rather than spill rounds); the result cache and the worker pool are
bypassed.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from repro.ir.parser import parse_module
from repro.regalloc import AllocationOptions
from repro.service.protocol import AllocationRequest, MachineSpec
from repro.service.scheduler import execute_request
from repro.target.presets import make_machine

from common import (
    Tally,
    check_allocation,
    code_instrs,
    counter_delta,
    median,
    metric,
    parse_allocated,
    peak_rss_mb,
    percentile,
)
from schedule import edit_base, edit_chain, interp_args
from server import RequestTooLarge, Server
from speed import SpeedTrack, one_cpu
from tracer import Node, build_tree

REGS = 24
SETUP_REPEATS = 5
#: versions generated per run; a run that exhausts them stops early
CHAIN_LENGTH = 400
#: the quality sums cover versions 0..QUALITY_VERSIONS-1, which every
#: run reaches (sent untimed after the window otherwise)
QUALITY_VERSIONS = 64
#: processes for the from-scratch reference allocations (2-CPU host)
CHECK_WORKERS = 2


def request(rid: str, ir: str, base: str) -> dict:
    return {"type": "allocate_delta", "protocol": 2, "id": rid, "ir": ir,
            "base": base, "allocator": "full",
            "machine": {"regs": REGS, "has_paired_loads": True},
            "options": {"verify": True}}


def start_server(base_ir: str) -> tuple[Server, str, float]:
    """Spawn, first ``pong``, prime the chain; returns the token too."""
    t0 = perf_counter()
    server = Server(jobs=2)
    try:
        server.start()
        conn = server.connect()
        try:
            reply = conn.request(request("prime", base_ir, ""))
        finally:
            conn.close()
        if not reply.get("ok") or not reply.get("session_digest"):
            raise RuntimeError(f"priming the edit chain failed: {reply}")
    except BaseException:
        server.stop()
        raise
    return server, reply["session_digest"], perf_counter() - t0


def _window(server, token, chain, seconds):
    """Versions in order until ``seconds`` pass, with a speed probe
    before each request and after the last.

    Returns ``[(version, kind, latency_s, reply)]`` and the latencies
    scaled to the reference speed.
    """
    results, spans = [], []
    track = SpeedTrack()
    conn = server.connect()
    deadline = perf_counter() + seconds
    try:
        for n, (kind, ir) in enumerate(chain):
            if perf_counter() >= deadline:
                break
            track.sample()
            t0 = perf_counter()
            try:
                reply = conn.request(request(f"e{n}", ir, token))
            except RequestTooLarge as err:
                reply = {"ok": False, "error": f"request too large: {err}"}
            t1 = perf_counter()
            spans.append((t0, t1))
            results.append((n, kind, t1 - t0, reply))
        track.sample()
    finally:
        conn.close()
    scaled = [r[2] * track.scale(*span) for r, span in zip(results, spans)]
    return results, scaled


def check_version(seed: int, n: int, ir: str, code: str,
                  result_digest: str) -> tuple[list, int]:
    """One version's checks: the from-scratch ``allocate`` digest, then
    verifier + interpreter against the version's source.  Returns the
    failures and the allocated code's instruction count."""
    failures = []
    scratch = execute_request(AllocationRequest(
        id=f"scratch{n}", ir=ir, allocator="full",
        machine=MachineSpec(regs=REGS),
        options=AllocationOptions(verify=True)))
    if scratch.result_digest != result_digest:
        failures.append(("digest", f"e{n}: differs from scratch allocate"))
    machine = make_machine(REGS)
    source = parse_module(ir).functions
    allocated = parse_allocated(code, source, machine)
    instrs = sum(code_instrs(f) for f in allocated)
    for src, got in zip(source, allocated):
        problem = check_allocation(src, got, machine,
                                   interp_args(src, seed, src.name))
        if problem is not None:
            failures.append((problem.split(":")[0], f"e{n}: {problem}"))
    return failures, instrs


def _check(results, chain, seed, tally) -> dict:
    """Checks outside the timed window, on two processes; returns
    ``version -> code_instrs`` for the ok replies.

    The workers are forked, which is safe because this process runs no
    other thread: a spawned pool would start a resource tracker process
    that outlives this one."""
    jobs = []
    for n, _, _, reply in results:
        if not reply.get("ok"):
            tally.fail("error", reply.get("error", ""))
        elif reply.get("degraded"):
            tally.fail("degraded", f"e{n}")
        else:
            jobs.append((n, reply))
    instrs = {}
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(CHECK_WORKERS, mp_context=ctx) as pool:
        futures = [(n, pool.submit(check_version, seed, n, chain[n][1],
                                   reply["code"], reply["result_digest"]))
                   for n, reply in jobs]
        for n, future in futures:
            failures, instrs[n] = future.result()
            for kind, detail in failures:
                tally.fail(kind, detail)
    return instrs


def _phase_delta(before: dict, after: dict) -> dict:
    old = before["metrics"]["alloc_phases"]
    delta = {}
    for path, entry in after["metrics"]["alloc_phases"].items():
        prev = old.get(path, {"s": 0.0, "calls": 0})
        delta[path] = {"s": entry["s"] - prev["s"],
                       "calls": entry["calls"] - prev["calls"]}
    return delta


def run(seed: int, seconds: float, trace: bool, tally: Tally):
    base_ir = edit_base()
    chain = edit_chain(seed, CHAIN_LENGTH)
    info = {"max_request_bytes": max(len(ir) for _, ir in chain)}
    setup_times = []
    track = SpeedTrack()
    # The server inherits the pin, so it runs where the probes run.
    with one_cpu():
        for i in range(SETUP_REPEATS):
            track.sample()
            t0 = perf_counter()
            server, token, setup_s = start_server(base_ir)
            track.sample()
            setup_times.append(setup_s * track.scale(t0, t0 + setup_s))
            if i + 1 < SETUP_REPEATS:
                server.stop()
        try:
            before = server.stats()
            results, lat = _window(server, token, chain, seconds)
            after = server.stats()
            rss_mb = peak_rss_mb(server.pids(after))
            # Quality versions the window never reached, sent untimed.
            extra = []
            conn = server.connect()
            try:
                for n in range(len(results), QUALITY_VERSIONS):
                    extra.append((n, chain[n][0], 0.0,
                                  conn.request(request(f"q{n}", chain[n][1],
                                                       token))))
            finally:
                conn.close()
        finally:
            server.stop()

    tally.attempted = len(results)
    instrs = _check(results + extra, chain, seed, tally)
    replies = {n: reply for n, _, _, reply in results + extra}
    by_kind = {"value": [], "struct": []}
    for _, kind, latency, _ in results:
        by_kind[kind].append(latency)
    info.update(samples=len(lat), value_edits=len(by_kind["value"]),
                struct_edits=len(by_kind["struct"]),
                unscaled_op_p50_ms=percentile([r[2] for r in results],
                                              50) * 1e3,
                setup_runs_s=setup_times, untimed_quality_requests=len(extra))
    if not trace:
        quality = range(QUALITY_VERSIONS)
        if any(n not in instrs for n in quality):
            tally.fail("error", "a quality version got no allocation")
            quality = [n for n in quality if n in instrs]
        return {
            "setup_s": metric(median(setup_times), "s"),
            "op_p50_ms": metric(percentile(lat, 50) * 1e3, "ms"),
            "op_p90_ms": metric(percentile(lat, 90) * 1e3, "ms"),
            # One client: ops over the time spent waiting for replies.
            "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
            "peak_rss_mb": metric(rss_mb, "MiB"),
            "op_ok_ratio": metric(1 - tally.failed / len(lat), "ratio"),
            "sim_cycles": metric(sum(replies[n]["cycles"]["total"]
                                     for n in quality), "cycles"),
            "code_instrs": metric(sum(instrs[n] for n in quality), "count"),
            "moves_eliminated": metric(
                sum(replies[n]["stats"]["moves_eliminated"]
                    for n in quality), "count"),
        }, info

    phases = _phase_delta(before, after)
    tree = _phase_tree(results, phases)
    info["phase_tree"] = tree.export()
    allocate = tree.child("op").child("service.total") \
        .child("service.allocate")

    def phase_s(path: str) -> float:
        return phases.get(path, {"s": 0.0})["s"]

    hits = counter_delta(before, after, "session_hits")
    misses = counter_delta(before, after, "session_misses")
    return {
        "service.wait_s": metric(sum(r[3].get("timings", {}).get(
            "wait_s", 0.0) for r in results), "s"),
        "service.allocate_s": metric(allocate.total, "s"),
        "op.total_s": metric(tree.child("op").total, "s"),
        "op.unattributed_s": metric(tree.child("op").self_time, "s"),
        "service.unattributed_s": metric(tree.child("op").self_time, "s"),
        "session.value_p50_ms": metric(
            percentile(by_kind["value"], 50) * 1e3, "ms"),
        "session.struct_p50_ms": metric(
            percentile(by_kind["struct"], 50) * 1e3, "ms"),
        "session.diff_s": metric(phase_s("session/diff"), "s"),
        "session.patch_s": metric(phase_s("session/patch"), "s"),
        "session.prepare_s": metric(phase_s("session/prepare"), "s"),
        "session.color_s": metric(phase_s("color"), "s"),
        "session.hit_ratio": metric(hits / max(1, hits + misses), "ratio"),
        "session.rebuilds": metric(
            counter_delta(before, after, "session_rebuilds"), "count"),
    }, info


def _phase_tree(results, phases: dict) -> Node:
    """Client latency > server total > wait + allocate > profiled phases."""
    root = Node("run")
    op = root.child("op")
    op.add(sum(r[2] for r in results), len(results))
    total = op.child("service.total")
    allocate_s = 0.0
    for _, _, _, reply in results:
        timings = reply.get("timings", {})
        total.add(timings.get("total_s", 0.0))
        total.child("service.wait").add(timings.get("wait_s", 0.0))
        allocate_s += timings.get("allocate_s", 0.0)
    total.children["service.allocate"] = build_tree(
        "service.allocate", allocate_s, len(results), phases)
    root.add(op.total, 1)
    return root
