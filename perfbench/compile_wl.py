"""``compile``: one function, cold, per op (JIT method-at-a-time).

Each op wraps one seeded function in a one-function module and runs
``prepare_module`` then ``allocate_module`` serially with ``verify`` on,
on the paper's 16-register model.  Every op prepares its own input, so
the round-0 analysis cache never hits.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from time import perf_counter

from repro import pipeline
from repro.core import PreferenceDirectedAllocator
from repro.core import allocator as core_allocator
from repro.core.select import PreferenceSelector
from repro.ir import clone as ir_clone
from repro.ir.function import Module
from repro.ir.printer import print_function
from repro.regalloc import AllocationOptions, ChaitinAllocator
from repro.regalloc import base as regalloc_base
from repro.regalloc import chaitin as regalloc_chaitin
from repro.regalloc.base import RoundAnalyses
from repro.service.protocol import cycles_to_dict, stats_to_dict
from repro.target.presets import high_pressure

from common import (
    ROOT,
    Tally,
    check_allocation,
    clean_env,
    code_instrs,
    digest,
    median,
    metric,
    parse_allocated,
    percentile,
)
from schedule import compile_inputs, interp_args
from speed import SpeedTrack, one_cpu
from tracer import Tracer

ALLOCATORS = {"chaitin": ChaitinAllocator,
              "full": PreferenceDirectedAllocator}
OPTIONS = AllocationOptions(verify=True, jobs=1)
SETUP_REPEATS = 9

#: what a cold compile imports before it can allocate anything
_IMPORTS = ("import repro.pipeline, repro.core, repro.regalloc, "
            "repro.target.presets")


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the pipeline,
    scaled to the reference speed by probes on the CPU it ran on."""
    times = []
    track = SpeedTrack()
    with one_cpu():
        for _ in range(SETUP_REPEATS):
            track.sample()
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", _IMPORTS],
                           env=clean_env(), cwd=ROOT, check=True,
                           timeout=120)
            times.append((t0, perf_counter()))
        track.sample()
    return median([(t1 - t0) * track.scale(t0, t1) for t0, t1 in times])


def compile_one(func, allocator: str, machine):
    """One op.  Names are looked up on their modules so the traced run's
    wrappers see the call."""
    prepared = pipeline.prepare_module(Module(func.name, [func]), machine)
    return pipeline.allocate_module(prepared, machine,
                                    ALLOCATORS[allocator](), OPTIONS)


def _record(run) -> tuple:
    """What an op's result is checked by: code text, stats, cycles.

    Plain strings and small dicts, so holding a whole run's records
    does not slow the collector down for later ops.
    """
    return (print_function(run.results[0].func), stats_to_dict(run.stats),
            cycles_to_dict(run.cycles))


def _timed(func, allocator, machine, tracer=None):
    """One op and its latency; under ``tracer`` as span ``op``."""
    t0 = perf_counter()
    if tracer is None:
        run = compile_one(func, allocator, machine)
    else:
        run = tracer.call("op", compile_one, func, allocator, machine)
    return perf_counter() - t0, run


def _window(funcs, ops, machine, seconds: float):
    """Ops in order (wrapping to further passes) until ``seconds`` pass,
    with a speed probe before each op and after the last.

    Returns ``[(op position, latency_s, record)]`` and the latencies
    scaled to the reference speed.
    """
    done, spans = [], []
    track = SpeedTrack()
    deadline = perf_counter() + seconds
    n = 0
    while perf_counter() < deadline:
        op = ops[n % len(ops)]
        track.sample()
        t0 = perf_counter()
        latency, run = _timed(funcs[op.index], op.allocator, machine)
        spans.append((t0, t0 + latency))
        done.append((n, latency, _record(run)))
        n += 1
    track.sample()
    scaled = [latency * track.scale(*span)
              for (_, latency, _), span in zip(done, spans)]
    return done, scaled


def _paired_window(funcs, ops, machine, seconds: float, tracer: Tracer):
    """Each op twice, untraced and traced, alternating which goes first,
    so drifts in host speed hit both sides alike.

    Returns the untraced and the traced ``[(position, latency_s,
    record)]`` lists.
    """
    plain, traced = [], []
    deadline = perf_counter() + seconds
    n = 0
    while perf_counter() < deadline:
        op = ops[n % len(ops)]
        for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
            if with_trace:
                install(tracer)
                try:
                    latency, run = _timed(funcs[op.index], op.allocator,
                                          machine, tracer)
                finally:
                    tracer.restore()
                traced.append((n, latency, _record(run)))
            else:
                latency, run = _timed(funcs[op.index], op.allocator,
                                      machine)
                plain.append((n, latency, _record(run)))
        n += 1
    return plain, traced


def _count_patched(tracer, args, result) -> None:
    if result is not None:
        tracer.counts["analysis.patched_rounds"] += 1


def _count_spill(tracer, args, result) -> None:
    tracer.counts["analysis.spill_rounds"] += 1
    tracer.counts["spill.webs"] += len(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the compile op reaches."""
    p = tracer.patch
    p(pipeline, "prepare_module", "pipeline.prepare")
    p(pipeline, "allocate_module", "pipeline.allocate")
    p(ir_clone, "clone_function", "ir.clone")
    p(pipeline, "clone_function", "ir.clone")
    p(pipeline, "renumber", "analysis.renumber")
    p(regalloc_base, "renumber", "analysis.renumber")
    p(pipeline, "compute_round_analyses", "analysis.round0")
    p(regalloc_base, "compute_round_analyses", "analysis.reanalyze")
    p(RoundAnalyses, "apply_delta", "analysis.reanalyze", _count_patched)
    p(pipeline, "allocate_function", "regalloc.allocate")
    p(regalloc_base, "build_alloc_graph", "regalloc.igraph")
    p(regalloc_chaitin, "coalesce_aggressive", "regalloc.coalesce")
    p(regalloc_chaitin, "simplify", "regalloc.simplify")
    p(core_allocator, "simplify", "regalloc.simplify")
    p(regalloc_chaitin, "select", "regalloc.select")
    p(ChaitinAllocator, "allocate_round", "regalloc.color_chaitin")
    p(PreferenceDirectedAllocator, "allocate_round", "core.color_full")
    p(core_allocator, "CostModel", "core.costs")
    p(core_allocator, "build_rpg", "core.rpg")
    p(core_allocator, "build_cpg", "core.cpg")
    p(PreferenceSelector, "run", "core.select")
    p(regalloc_base, "insert_spill_code", "spill.insert", _count_spill)
    p(pipeline, "verify_allocation", "regalloc.verify")
    p(pipeline, "estimate_cycles", "sim.cycles")


#: per-layer metric -> span name whose (outermost) total it reports
SPAN_METRICS = {
    "pipeline.prepare_s": "pipeline.prepare",
    "pipeline.allocate_s": "pipeline.allocate",
    "ir.clone_s": "ir.clone",
    "analysis.renumber_s": "analysis.renumber",
    "analysis.round0_s": "analysis.round0",
    "analysis.reanalyze_s": "analysis.reanalyze",
    "regalloc.allocate_s": "regalloc.allocate",
    "regalloc.igraph_s": "regalloc.igraph",
    "regalloc.coalesce_s": "regalloc.coalesce",
    "regalloc.simplify_s": "regalloc.simplify",
    "regalloc.select_s": "regalloc.select",
    "regalloc.color_chaitin_s": "regalloc.color_chaitin",
    "core.color_full_s": "core.color_full",
    "core.costs_s": "core.costs",
    "core.rpg_s": "core.rpg",
    "core.cpg_s": "core.cpg",
    "core.select_s": "core.select",
    "spill.insert_s": "spill.insert",
    "regalloc.verify_s": "regalloc.verify",
    "sim.cycles_s": "sim.cycles",
}
COUNT_METRICS = ("analysis.patched_rounds", "analysis.spill_rounds",
                 "spill.webs")


def _verify_outputs(funcs, ops, done, machine, seed, tally,
                    complete: bool = True, others=()) -> dict:
    """Checks outside the timed window; returns pass 1 as
    ``position -> (record, code_instrs)``.

    Every op of pass 1 is checked against its source in the interpreter
    (with ``complete``, pass-1 ops the window did not reach are compiled
    here, untimed).  Later passes, and the ops of ``others`` (a second
    window over the same order), must reproduce pass 1's result digest.
    """
    first = {n: record for n, _, record in done if n < len(ops)}
    if complete:
        for n in range(len(ops)):
            if n not in first:
                op = ops[n]
                first[n] = _record(compile_one(funcs[op.index],
                                               op.allocator, machine))
    digests = {n: digest(record) for n, record in first.items()}
    for n, _, record in [*done, *others]:
        want = digests.get(n % len(ops))
        if want is not None and record is not first.get(n) \
                and digest(record) != want:
            tally.fail("digest", f"op {n} differs from pass 1")
    checked = {}
    for n, record in first.items():
        op = ops[n]
        src = funcs[op.index]
        got = parse_allocated(record[0], [src], machine)[0]
        problem = check_allocation(src, got, machine,
                                   interp_args(src, seed, src.name))
        if problem is not None:
            tally.fail(problem.split(":")[0],
                       f"{src.name}/{op.allocator}: {problem}")
        checked[n] = (record, code_instrs(got))
    return checked


def run(seed: int, seconds: float, trace: bool, tally: Tally):
    """Returns ``(metrics, info)`` for the end-to-end or traced run."""
    setup_s = setup_seconds()
    machine = high_pressure()
    funcs, ops, reference = compile_inputs(seed)
    info = {"functions": len(funcs), "reference_functions": reference,
            "ops_per_pass": len(ops)}
    if not trace:
        done, lat = _window(funcs, ops, machine, seconds)
        checked = _verify_outputs(funcs, ops, done, machine, seed, tally)
        tally.attempted = len(done)
        info["samples"] = len(lat)
        info["passes"] = round(len(done) / len(ops), 3)
        info["unscaled_op_p50_ms"] = percentile(
            [t for _, t, _ in done], 50) * 1e3
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Quality over the reference suite only: identical for every seed.
        quality = [v for n, v in checked.items()
                   if ops[n].index < reference]
        return {
            "setup_s": metric(setup_s, "s"),
            "op_p50_ms": metric(percentile(lat, 50) * 1e3, "ms"),
            "op_p90_ms": metric(percentile(lat, 90) * 1e3, "ms"),
            # Serial compiles: work per second of compiling, without
            # the harness's bookkeeping and probes between ops.
            "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
            "peak_rss_mb": metric(rss_mb, "MiB"),
            "op_ok_ratio": metric(1 - tally.failed / len(done), "ratio"),
            "sim_cycles": metric(sum(r[2]["total"] for r, _ in quality),
                                 "cycles"),
            "code_instrs": metric(sum(n for _, n in quality), "count"),
            "moves_eliminated": metric(sum(r[1]["moves_eliminated"]
                                           for r, _ in quality), "count"),
        }, info

    # Traced run: every op untraced and traced back to back; the p50
    # gap between the two sides is the tracing overhead.
    tracer = Tracer()
    plain, traced = _paired_window(funcs, ops, machine, seconds, tracer)
    _verify_outputs(funcs, ops, plain, machine, seed, tally,
                    complete=False, others=traced)
    tally.attempted = len(plain) + len(traced)
    plain_p50 = percentile([t for _, t, _ in plain], 50)
    traced_p50 = percentile([t for _, t, _ in traced], 50)
    info["samples"] = {"untraced": len(plain), "traced": len(traced)}
    info["phase_tree"] = tracer.tree()
    layer = {name: metric(tracer.total(span), "s")
             for name, span in SPAN_METRICS.items()}
    layer.update({name: metric(tracer.counts[name], "count")
                  for name in COUNT_METRICS})
    layer["op.total_s"] = metric(tracer.total("op"), "s")
    layer["op.unattributed_s"] = metric(tracer.self_time("op"), "s")
    layer["color.unattributed_s"] = metric(
        tracer.self_time("regalloc.color_chaitin")
        + tracer.self_time("core.color_full"), "s")
    layer["regalloc.spill_instrs"] = metric(
        sum(r[1]["spill_instructions"] for _, _, r in traced), "count")
    layer["trace.overhead_ms"] = metric((traced_p50 - plain_p50) * 1e3, "ms")
    return layer, info
