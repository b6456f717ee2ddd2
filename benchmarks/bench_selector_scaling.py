"""Scaling curve of the simplify/select decision loops.

The allocator's decision loops run on incrementally maintained priority
indexes (``repro.regalloc.worklist``).  This bench measures how they
scale as functions grow: synthetic programs from ~100 to ~3000 virtual
registers are allocated at several register-pressure levels, and the
per-phase profiler attributes the time to ``simplify``/``select`` (plus
the ``select/choose``, ``select/color`` and ``simplify/spill_pick``
sub-phases).  Each workload records its allocation fingerprint (stats
+ a digest of the full assignment).  Pick-for-pick identity with the
scan oracles is a test (``tests/test_properties.py``), not a bench
mode.

Run as a script to emit the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_selector_scaling.py \
        --repeats 2 --out BENCH_selector_scaling.json

``chaitin_best_s`` (the simplest allocator over the same function) is
recorded per workload as the machine-speed normalizer:
``check_perf_regression.py --selector`` gates on the chaitin-normalized
indexed select+simplify time, so runner speed cancels out exactly like
the allocator-speed gate.  Schema documented in DESIGN.md §5f.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.config import runtime_knobs
from repro.core import PreferenceDirectedAllocator
from repro.ir.clone import clone_function
from repro.ir.values import VReg
from repro.pipeline import prepare_function
from repro.profiling import profiled
from repro.regalloc import ChaitinAllocator, allocate_function
from repro.service.schema import dataflow_backend_fields
from repro.target.presets import make_machine
from repro.workloads.generator import generate_function
from repro.workloads.profiles import BenchmarkProfile

#: (name, target vreg scale) -> generator knobs.  ``stmts`` is the lever;
#: the pressure pool grows with it so big functions stay register-hungry.
SIZES = {
    100: dict(stmts=60, int_pool=12),
    300: dict(stmts=215, int_pool=20),
    1000: dict(stmts=740, int_pool=40),
    3000: dict(stmts=2250, int_pool=64),
}

#: register counts; fewer registers = higher pressure = more spill picks
PRESSURES = (8, 16)

SEED = 7


def make_workload(size: int, k: int):
    knobs = SIZES[size]
    profile = BenchmarkProfile(
        name=f"selscale{size}",
        stmts=knobs["stmts"],
        int_pool=knobs["int_pool"],
        call_prob=0.08, branch_prob=0.10, loop_prob=0.10,
        copy_prob=0.10, load_prob=0.15, store_prob=0.05,
    )
    machine = make_machine(k)
    func = generate_function(f"selscale{size}", profile, SEED)
    return func, machine


def count_vregs(func, machine) -> int:
    """Webs the round-0 coloring graphs actually see (post-renumber)."""
    from repro.analysis.renumber import renumber

    work = prepare_function(clone_function(func), machine)
    renumber(work)
    seen: set[VReg] = set()
    for blk in work.blocks:
        for instr in blk.instrs:
            for v in list(instr.defs()) + list(instr.uses()):
                if isinstance(v, VReg):
                    seen.add(v)
    return len(seen)


def fingerprint(result) -> dict:
    """Stats plus a digest of the complete final assignment."""
    stats = result.stats
    assign = "".join(
        f"{v.id}:{p}," for v, p in
        sorted(result.assignment.items(), key=lambda kv: kv[0].id)
    )
    return {
        "moves_eliminated": stats.moves_eliminated,
        "spill_instructions": stats.spill_loads + stats.spill_stores,
        "spilled_webs": stats.spilled_webs,
        "rounds": stats.rounds,
        "assignment_sha256": hashlib.sha256(
            assign.encode()
        ).hexdigest()[:16],
    }


def phase_total(snapshot: dict, leaf: str) -> float:
    """Seconds accumulated under any path ending in ``/<leaf>``."""
    return round(sum(
        entry["s"] for path, entry in snapshot.items()
        if path == leaf or path.endswith(f"/{leaf}")
    ), 4)


def timed_run(func, machine, allocator_factory, repeats: int):
    """Best-of-``repeats`` allocation: seconds, profile, result."""
    best = None
    result = None
    snapshot = None
    for _ in range(repeats):
        work = prepare_function(clone_function(func), machine)
        with profiled() as prof:
            start = time.perf_counter()
            result = allocate_function(work, machine, allocator_factory())
            elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            snapshot = prof.snapshot(digits=4)
    return best, snapshot, result


def run_workload(size: int, k: int, repeats: int) -> dict:
    func, machine = make_workload(size, k)
    vregs = count_vregs(func, machine)
    entry = {
        "name": f"v{size}_k{k}",
        "target_vregs": size,
        "vregs": vregs,
        "k": k,
    }

    chaitin_best, _, _ = timed_run(func, machine, ChaitinAllocator,
                                   repeats)
    entry["chaitin_best_s"] = round(chaitin_best, 4)

    best, snapshot, result = timed_run(
        func, machine, PreferenceDirectedAllocator, repeats
    )
    select_s = phase_total(snapshot, "select")
    simplify_s = phase_total(snapshot, "simplify")
    entry["indexed"] = {
        "total_s": round(best, 4),
        "select_s": select_s,
        "simplify_s": simplify_s,
        "select_simplify_s": round(select_s + simplify_s, 4),
        "phases": {
            leaf: phase_total(snapshot, leaf)
            for leaf in ("choose", "color", "spill_pick")
        },
    }
    entry["fingerprint"] = fingerprint(result)
    # The chaitin-normalized gate metric: decision-loop seconds per
    # second of chaitin over the same function on the same machine.
    entry["select_ratio_vs_chaitin"] = round(
        entry["indexed"]["select_simplify_s"] / chaitin_best, 3
    )
    return entry


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="*",
                        default=sorted(SIZES), choices=sorted(SIZES))
    parser.add_argument("--pressures", type=int, nargs="*",
                        default=list(PRESSURES))
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--smoke", action="store_true",
                        help="small-N CI configuration (sizes up to 1000, "
                             "pressure 8, two repeats)")
    parser.add_argument("--out", default="BENCH_selector_scaling.json")
    args = parser.parse_args(argv)
    if args.smoke:
        # Two repeats: the ratio gate compares best-of-run times, and a
        # single repeat on the sub-second workloads is all noise.
        args.sizes, args.pressures, args.repeats = [100, 300, 1000], [8], 2
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    for k in args.pressures:
        if k < 2:
            parser.error("--pressures entries must be >= 2")

    report = {
        "bench": "selector_scaling",
        "seed": SEED,
        "repeats": args.repeats,
        "python": sys.version.split()[0],
        # Resolving the backend here also front-loads the (lazy) numpy
        # import, keeping it out of the profiled phase breakdowns.
        **dataflow_backend_fields(),
        "knobs": runtime_knobs(),
        "git_commit": git_commit(),
        "hostname": socket.gethostname(),
        "workloads": [],
    }
    for size in args.sizes:
        for k in args.pressures:
            entry = run_workload(size, k, args.repeats)
            report["workloads"].append(entry)
            print(f"{entry['name']:>10} ({entry['vregs']} vregs): "
                  f"select+simplify "
                  f"{entry['indexed']['select_simplify_s']:.3f}s "
                  f"({entry['select_ratio_vs_chaitin']}x chaitin)")

    largest = max(report["workloads"], key=lambda w: (w["vregs"], -w["k"]))
    report["largest_workload"] = largest["name"]
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} (largest workload {largest['name']})")


if __name__ == "__main__":
    main()
