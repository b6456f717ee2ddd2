"""Edit-churn latency: incremental re-allocation vs from-scratch.

Models the editing loop the session layer (:mod:`repro.service.session`)
exists for: a client holds a large module open and streams k small
edits, each a single-instruction change to one block of one function.
For every edited version the bench times

* the **scratch** path — :func:`repro.service.scheduler.execute_request`,
  the full parse/prepare/analyze/allocate pipeline, and
* the **incremental** path —
  :func:`repro.service.session.execute_delta_request` against a live
  :class:`~repro.service.session.SessionStore`, i.e. the
  ``allocate_delta`` wire path with a warm edit chain,

and reports total and per-edit p50/p99 latency for both, their ratio
(``speedup``), the session-store hit ratio, and the per-rung path
counts (``value``/``struct``/``rebuild``).  Constant edits ride the
value rung; ``--struct-edits`` mixes in dead-constant insertions, which
force re-prepare + analysis patching (the struct rung) and are reported
but not part of the headline speedup.

Exactness is asserted, not sampled: every edited version's
``result_digest`` must be byte-identical across the scratch path and
the incremental path; any divergence fails the run.  One
incremental chain pass runs under the profiler so the report carries
the ``session``/``session/diff``/``session/patch`` phase breakdown next
to the pipeline phases it displaces.

Run as a script to emit the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_edit_churn.py \
        --bench spillstress --regs 24 --edits 12 --repeats 3 \
        --out BENCH_edit_churn.json

``check_perf_regression.py --edit`` gates the committed report: the
speedup floor is absolute (scratch and incremental share a run, so
runner speed divides out).
"""

import argparse
import json
import random
import socket
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.config import runtime_knobs
from repro.ir.instructions import ConstInst
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.profiling import profiled
from repro.regalloc import AllocationOptions
from repro.service.protocol import AllocationRequest, MachineSpec
from repro.service.scheduler import execute_request
from repro.service.session import SessionStore, execute_delta_request
from repro.service.schema import dataflow_backend_fields
from repro.workloads import make_benchmark

#: speedup floor the committed report (and the CI gate) must hold for
#: value-rung churn on large functions
SPEEDUP_FLOOR = 2.0


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def const_sites(module) -> list[tuple[int, str, int]]:
    sites = []
    for fi, func in enumerate(module.functions):
        for blk in func.blocks:
            for i, instr in enumerate(blk.instrs):
                if isinstance(instr, ConstInst) \
                        and isinstance(instr.value, int):
                    sites.append((fi, blk.label, i))
    return sites


def make_versions(base_ir: str, edits: int, struct_edits: int,
                  seed: int) -> list[dict]:
    """The edit chain: ``[{ir, kind}, ...]``, derived version from
    version the way an editor would produce them."""
    module = parse_module(base_ir)
    sites = const_sites(module)
    if not sites:
        raise SystemExit("workload has no integer constants to edit")
    rng = random.Random(seed)
    kinds = ["value"] * edits + ["struct"] * struct_edits
    rng.shuffle(kinds)
    versions = []
    for n, kind in enumerate(kinds):
        if kind == "value":
            fi, label, i = sites[n % len(sites)]
            blocks = {b.label: b for b in module.functions[fi].blocks}
            blocks[label].instrs[i].value += rng.randrange(1, 9)
        else:
            func = module.functions[rng.randrange(len(module.functions))]
            blk = func.blocks[rng.randrange(len(func.blocks))]
            blk.instrs.insert(rng.randrange(len(blk.instrs)),
                              ConstInst(func.new_vreg(), rng.randrange(64)))
            # Structure changed: re-derive the editable constant sites.
            sites = const_sites(module)
        versions.append({"ir": print_module(module), "kind": kind})
    return versions


def request_for(rid: str, ir: str, allocator: str, regs: int,
                base: str | None = None) -> AllocationRequest:
    return AllocationRequest(id=rid, ir=ir, allocator=allocator,
                             machine=MachineSpec(regs=regs),
                             verify=False, base_digest=base)


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def latency_summary(samples: list[float]) -> dict:
    return {
        "total_s": round(sum(samples), 4),
        "p50_ms": round(percentile(samples, 0.50) * 1e3, 3),
        "p99_ms": round(percentile(samples, 0.99) * 1e3, 3),
    }


def time_scratch(versions, allocator, regs, repeats):
    best = [float("inf")] * len(versions)
    digests = [None] * len(versions)
    for _ in range(repeats):
        for n, version in enumerate(versions):
            req = request_for(f"s{n}", version["ir"], allocator, regs)
            start = time.perf_counter()
            response = execute_request(req)
            best[n] = min(best[n], time.perf_counter() - start)
            digests[n] = response.result_digest
    return best, digests


def run_chain(base_ir, versions, allocator, regs):
    """One edit chain through the delta path; returns per-edit times,
    digests, and the store/paths bookkeeping of the final pass."""
    store = SessionStore(capacity=8)
    options = AllocationOptions(verify=False)
    warm = execute_delta_request(
        request_for("base", base_ir, allocator, regs, base=""),
        store, options)
    token = warm.session_digest
    times, digests, paths = [], [], {}
    for n, version in enumerate(versions):
        req = request_for(f"e{n}", version["ir"], allocator, regs,
                          base=token)
        info: dict = {}
        start = time.perf_counter()
        response = execute_delta_request(req, store, options, info=info)
        times.append(time.perf_counter() - start)
        digests.append(response.result_digest)
        assert response.session_digest == token
        assert info["base_hit"]
        for path, count in info["paths"].items():
            paths[path] = paths.get(path, 0) + count
    return {"times": times, "digests": digests, "paths": paths,
            "store": store.snapshot()}


def run(bench: str, regs: int, edits: int, struct_edits: int,
        repeats: int, allocator: str, seed: int) -> dict:
    module = make_benchmark(bench)
    base_ir = print_module(module)
    versions = make_versions(base_ir, edits, struct_edits, seed)
    n_instrs = sum(len(b.instrs) for f in module.functions
                   for b in f.blocks)

    scratch_best, scratch_digests = time_scratch(
        versions, allocator, regs, repeats)

    incr_best = [float("inf")] * len(versions)
    final = None
    for _ in range(repeats):
        final = run_chain(base_ir, versions, allocator, regs)
        incr_best = [min(a, b) for a, b in zip(incr_best, final["times"])]
    assert final["digests"] == scratch_digests, \
        "incremental result digests diverge from the scratch path"

    # One profiled pass for the phase breakdown (session/diff/patch
    # next to parse/prepare/allocate).
    with profiled() as prof:
        run_chain(base_ir, versions, allocator, regs)

    value_idx = [n for n, v in enumerate(versions) if v["kind"] == "value"]
    value_scratch = [scratch_best[n] for n in value_idx]
    value_incr = [incr_best[n] for n in value_idx]
    speedup = round(sum(value_scratch) / sum(value_incr), 2)

    hits = final["store"]["hits"]
    misses = final["store"]["misses"]
    report = {
        "kind": "edit_churn",
        "bench": bench,
        "regs": regs,
        "allocator": allocator,
        "edits": edits,
        "struct_edits": struct_edits,
        "repeats": repeats,
        "seed": seed,
        "functions": len(module.functions),
        "instructions": n_instrs,
        "python": sys.version.split()[0],
        **dataflow_backend_fields(),
        "knobs": runtime_knobs(),
        "git_commit": git_commit(),
        "hostname": socket.gethostname(),
        "scratch": latency_summary(value_scratch),
        "incremental": {
            **latency_summary(value_incr),
            "paths": final["paths"],
            "session_hit_ratio": round(hits / max(1, hits + misses), 4),
        },
        "speedup": speedup,
        "fingerprints_identical": True,  # asserted above
        "phases": prof.snapshot(digits=4),
    }
    if struct_edits:
        struct_idx = [n for n, v in enumerate(versions)
                      if v["kind"] == "struct"]
        report["struct"] = {
            "scratch": latency_summary([scratch_best[n]
                                        for n in struct_idx]),
            "incremental": latency_summary([incr_best[n]
                                            for n in struct_idx]),
            "speedup": round(
                sum(scratch_best[n] for n in struct_idx)
                / sum(incr_best[n] for n in struct_idx), 2),
        }
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="spillstress")
    parser.add_argument("--regs", type=int, default=24)
    parser.add_argument("--edits", type=int, default=12,
                        help="single-constant value edits (the headline "
                             "speedup is over these)")
    parser.add_argument("--struct-edits", type=int, default=4,
                        help="dead-insert structural edits mixed into "
                             "the chain (reported separately)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--allocator", default="chaitin")
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--out", default="BENCH_edit_churn.json")
    args = parser.parse_args(argv)
    if args.edits < 1 or args.repeats < 1:
        parser.error("--edits and --repeats must be >= 1")
    report = run(args.bench, args.regs, args.edits, args.struct_edits,
                 args.repeats, args.allocator, args.seed)
    print(f"value-edit churn: scratch {report['scratch']['total_s']}s "
          f"vs incremental {report['incremental']['total_s']}s "
          f"-> {report['speedup']}x "
          f"(hit ratio {report['incremental']['session_hit_ratio']}, "
          f"paths {report['incremental']['paths']})")
    if "struct" in report:
        print(f"struct-edit churn: {report['struct']['speedup']}x")
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if report["speedup"] < SPEEDUP_FLOOR:
        print(f"WARNING: speedup {report['speedup']} below the "
              f"{SPEEDUP_FLOOR}x floor", file=sys.stderr)


if __name__ == "__main__":
    main()
