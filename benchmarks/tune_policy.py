"""Offline policy tuner: search the heuristic space for a better Policy.

The paper fixes its heuristic constants once and for all; PR 9 factored
them into :class:`repro.policy.Policy` so they can be *searched*.  This
harness runs seeded random search plus greedy one-axis local search
over the workload generator's families, scoring each candidate on the
``full`` (preference-directed) allocator's *simulated* cycle totals —
deterministic, so every number in the report is byte-reproducible from
the seed.  Candidates allocate through the ordinary
``allocate_module`` path (``--jobs`` fans evaluation out over the
existing worker pool) with verification on: a policy that produces an
invalid allocation is discarded, not shipped.

A candidate *wins* only under the no-regression rule: cycles at most
the default policy's on **every** family and strictly better on at
least one.  The best winner ships as a committed preset
(``repro/policies/tuned_v1.json``, selectable via ``--policy
tuned_v1``); the report (``BENCH_policy_tuning.json``, schema type
``policy_tuning``) carries per-family default/tuned measurements and
deltas.  The tier-1 test
``tests/test_policy.py::TestPresets::test_tuned_v1_rescores_exactly_and_dominates``
re-measures ``tuned_v1`` through :func:`run` and requires the committed
measurements byte for byte plus the no-regression rule.

Run modes::

    # full search (the committed report's provenance):
    PYTHONPATH=src python benchmarks/tune_policy.py \
        --seed 0 --budget 40 --local 12 \
        --out BENCH_policy_tuning.json \
        --emit-preset src/repro/policies/tuned_v1.json

    # re-measure a committed preset, no search:
    PYTHONPATH=src python benchmarks/tune_policy.py \
        --evaluate tuned_v1 --out /tmp/policy_tuning_fresh.json
"""

import argparse
import json
import random
import socket
import subprocess
import sys
from pathlib import Path

from repro.config import runtime_knobs
from repro.core import PreferenceDirectedAllocator
from repro.errors import ReproError
from repro.pipeline import allocate_module, prepare_module
from repro.policy import DEFAULT_POLICY, Policy, load_policy
from repro.regalloc import AllocationOptions
from repro.service.schema import policy_tuning_payload
from repro.target.presets import make_machine
from repro.workloads import make_benchmark
from repro.workloads.generator import generate_module
from repro.workloads.profiles import BenchmarkProfile

#: High-call-density family: jess-shaped control flow with the call
#: probability pushed far past any SPEC profile, so the save/restore vs
#: callee-save trade-off (save_restore_cost / callee_save_cost)
#: actually moves the needle.
CALL_DENSE_PROFILE = BenchmarkProfile(
    name="calldense", n_functions=12, stmts=16,
    int_pool=14, float_pool=0,
    call_prob=0.34, branch_prob=0.14, loop_prob=0.10, max_loop_depth=1,
    copy_prob=0.08, paired_prob=0.10, byte_prob=0.0,
    load_prob=0.14, store_prob=0.05,
)

#: registers per class for every family: tight enough that all three
#: workloads actually spill (the knobs are spill heuristics).
FAMILY_REGS = 12


def family_modules(seed: int) -> dict:
    """The tuning families: name -> (module, machine)."""
    machine = make_machine(FAMILY_REGS)
    return {
        "spillstress": (make_benchmark("spillstress", seed=seed), machine),
        "jess": (make_benchmark("jess", seed=seed), machine),
        "calldense": (generate_module(CALL_DENSE_PROFILE, seed=seed),
                      machine),
    }


def measure(prepared, machine, policy: Policy, jobs: int) -> dict:
    """One family's result fingerprint under ``policy`` (verified)."""
    options = AllocationOptions(jobs=jobs, policy=policy)
    run = allocate_module(prepared, machine, PreferenceDirectedAllocator(),
                          options)
    stats = run.stats
    pref_total = stats.moves_before_weighted
    return {
        "cycles": run.cycles.total,
        "spill_instructions": stats.spill_loads + stats.spill_stores,
        "spilled_webs": stats.spilled_webs,
        "moves_eliminated": stats.moves_eliminated,
        "moves_before": stats.moves_before,
        "preference_satisfaction": round(
            stats.moves_eliminated_weighted / pref_total, 6
        ) if pref_total else 1.0,
        "rounds": stats.rounds,
    }


def evaluate(policy: Policy, families: dict, jobs: int) -> dict | None:
    """Every family's measurement, or None if any allocation fails.

    Verification runs inside ``measure``; a policy steering the
    allocator into an invalid or infeasible allocation is rejected
    here rather than surfacing downstream.
    """
    out = {}
    for name, (prepared, machine) in families.items():
        try:
            out[name] = measure(prepared, machine, policy, jobs)
        except ReproError:
            return None
    return out


def dominates(candidate: dict, default: dict) -> bool:
    """No family regresses on cycles and at least one strictly improves."""
    improved = False
    for name, base in default.items():
        got = candidate[name]["cycles"]
        if got > base["cycles"]:
            return False
        if got < base["cycles"]:
            improved = True
    return improved


def total_cycles(measured: dict) -> float:
    return sum(entry["cycles"] for entry in measured.values())


#: The searched axes.  Values are chosen to stay well inside Policy's
#: validation envelope; the default of every axis is listed so local
#: search can step back toward it.
AXES = {
    "save_restore_cost": (2, 3, 4, 5),
    "callee_save_cost": (1, 2, 3, 4),
    "spill_load_cost": (1, 2, 3, 4),
    "spill_store_cost": (1, 2, 3),
    "loop_depth_exponent": (0.8, 0.9, 1.0, 1.1, 1.25),
    "spill_cost_exponent": (0.75, 0.9, 1.0, 1.1, 1.25),
    "spill_degree_exponent": (0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
    "spill_tie_break": (("id", "name"), ("name", "id")),
    "select_differential_weight": (0.5, 1.0, 2.0, 4.0),
    "select_spill_cost_weight": (0.25, 0.5, 1.0, 2.0),
    "select_id_weight": (0.5, 1.0, 2.0),
}


def random_candidate(rng: random.Random) -> Policy:
    """An independent draw over every axis."""
    return Policy(**{name: rng.choice(values)
                     for name, values in AXES.items()})


def neighbors(policy: Policy, rng: random.Random, count: int) -> list:
    """``count`` single-axis mutations of ``policy``."""
    out = []
    axes = list(AXES.items())
    for _ in range(count):
        name, values = rng.choice(axes)
        current = getattr(policy, name)
        alternatives = [v for v in values if v != current]
        out.append(policy.replace(**{name: rng.choice(alternatives)}))
    return out


def search(families: dict, default_measured: dict, seed: int,
           budget: int, local: int, jobs: int) -> tuple:
    """Random search then greedy local refinement.

    Returns ``(best_policy, best_measured, evaluated_count)`` where the
    best is the lowest-total-cycles candidate satisfying
    :func:`dominates` (``(None, None, n)`` when nothing beat the
    default).
    """
    rng = random.Random(seed)
    seen = {DEFAULT_POLICY.digest()}
    best, best_measured = None, None
    evaluated = 0

    def consider(policy: Policy) -> None:
        nonlocal best, best_measured, evaluated
        if policy.digest() in seen:
            return
        seen.add(policy.digest())
        measured = evaluate(policy, families, jobs)
        evaluated += 1
        if measured is None or not dominates(measured, default_measured):
            return
        if best is None or total_cycles(measured) < total_cycles(
                best_measured):
            best, best_measured = policy, measured
            print(f"  new best after {evaluated} evaluations: "
                  f"{total_cycles(measured):.0f} cycles "
                  f"(default {total_cycles(default_measured):.0f})")

    for _ in range(budget):
        consider(random_candidate(rng))
    if best is not None and local > 0:
        # Greedy: restart the neighborhood whenever the incumbent moves.
        steps = local
        while steps > 0:
            incumbent = best
            for neighbor in neighbors(incumbent, rng, steps):
                steps -= 1
                consider(neighbor)
                if best is not incumbent:
                    break  # re-center on the improved incumbent
            if best is incumbent:
                break  # local optimum within budget
    return best, best_measured, evaluated


def family_deltas(default_measured: dict, tuned_measured: dict) -> dict:
    """Per-family report section: default vs tuned plus signed deltas."""
    out = {}
    for name, base in default_measured.items():
        tuned = tuned_measured[name]
        out[name] = {
            "default": base,
            "tuned": tuned,
            "delta": {
                "cycles": round(tuned["cycles"] - base["cycles"], 6),
                "spill_instructions": (tuned["spill_instructions"]
                                       - base["spill_instructions"]),
                "preference_satisfaction": round(
                    tuned["preference_satisfaction"]
                    - base["preference_satisfaction"], 6),
            },
        }
    return out


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(args) -> dict:
    families = {
        name: (prepare_module(module, machine), machine)
        for name, (module, machine) in family_modules(args.seed).items()
    }
    print("measuring default policy ...")
    default_measured = evaluate(DEFAULT_POLICY, families, args.jobs)
    assert default_measured is not None, "default policy must allocate"

    if args.evaluate is not None:
        best = load_policy(args.evaluate)
        if best.is_default():
            raise SystemExit(f"--evaluate {args.evaluate}: resolves to "
                             "the default policy; nothing to compare")
        best_measured = evaluate(best, families, args.jobs)
        if best_measured is None:
            raise SystemExit(f"--evaluate {args.evaluate}: policy fails "
                             "to produce valid allocations")
        evaluated = 1
        mode = "evaluate"
    else:
        print(f"searching (seed={args.seed}, budget={args.budget}, "
              f"local={args.local}) ...")
        best, best_measured, evaluated = search(
            families, default_measured, args.seed, args.budget,
            args.local, args.jobs)
        mode = "search"

    tuner = {
        "mode": mode,
        "seed": args.seed,
        "budget": args.budget,
        "local": args.local,
        "jobs": args.jobs,
        "evaluated": evaluated,
        "allocator": "full",
        "regs": FAMILY_REGS,
        "workloads": {
            name: {"functions": len(prepared.functions),
                   "instructions": prepared.instruction_count()}
            for name, (prepared, _machine) in families.items()
        },
        "knobs": runtime_knobs(),
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "hostname": socket.gethostname(),
    }
    if args.evaluate is not None:
        tuner["evaluate"] = args.evaluate

    if best is None:
        print("no candidate dominated the default policy")
        return policy_tuning_payload(
            tuner, {name: {"default": entry}
                    for name, entry in default_measured.items()})

    report = policy_tuning_payload(
        tuner,
        family_deltas(default_measured, best_measured),
        best={"policy": best.to_dict(), "digest": best.digest()},
    )
    for name, section in report["families"].items():
        delta = section["delta"]
        print(f"{name:>12}: cycles {section['default']['cycles']:.0f} -> "
              f"{section['tuned']['cycles']:.0f} "
              f"({delta['cycles']:+.0f}), "
              f"spills {delta['spill_instructions']:+d}, "
              f"pref sat {delta['preference_satisfaction']:+.4f}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload + search seed (default 0)")
    parser.add_argument("--budget", type=int, default=40,
                        help="random-search candidate budget")
    parser.add_argument("--local", type=int, default=12,
                        help="greedy single-axis refinement budget")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker-pool width per evaluation")
    parser.add_argument("--evaluate", default=None, metavar="FILE|PRESET",
                        help="skip the search: measure this policy "
                             "against the default (no search)")
    parser.add_argument("--out", default="BENCH_policy_tuning.json")
    parser.add_argument("--emit-preset", default=None, metavar="PATH",
                        help="also write the winning policy as a preset "
                             "JSON file (fails if nothing won)")
    args = parser.parse_args(argv)
    if args.budget < 0 or args.local < 0:
        parser.error("--budget/--local must be >= 0")
    report = run(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if args.emit_preset is not None:
        best = report.get("best")
        if best is None:
            print("no winning policy; preset not written", file=sys.stderr)
            return 1
        policy = Policy.from_dict(best["policy"])
        preset = Path(args.emit_preset)
        preset.parent.mkdir(parents=True, exist_ok=True)
        preset.write_text(policy.to_json(indent=2) + "\n")
        print(f"wrote {args.emit_preset} (digest {policy.digest()[:12]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
