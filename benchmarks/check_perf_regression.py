"""Perf-regression gate: a fresh bench report vs the committed baseline.

CI runners and the machine that produced ``BENCH_allocator_speed.json``
differ in raw speed, so absolute ``best_s`` values cannot be compared
directly.  The gate normalizes by the ``chaitin`` allocator — the
simplest, most stable configuration — and checks every other
allocator's time *relative to chaitin* against the committed report:

    ratio(report, name) = best_s[name] / best_s[chaitin]
    ratio(fresh, name) <= ratio(committed, name) * (1 + tolerance)

A real perf regression (say, the incremental spill-round path silently
falling back to from-scratch re-analysis) inflates the spilling
allocators' ratios well past any plausible noise band, while uniform
machine slowness cancels out.  The derived ``speedup_full`` figure is
checked the same way.  Behavioral fingerprints (moves, spills, cycles)
are a separate CI step; this gate is about time only.

``--selector`` switches the gate to ``BENCH_selector_scaling.json``
reports: per workload, the *chaitin-normalized* indexed select+simplify
time (``select_ratio_vs_chaitin`` — decision-loop seconds per second of
chaitin over the same function) must stay within tolerance of the
committed baseline.  A regression here means the priority indexes
degraded back toward a rescan's scaling curve.  The gate also fails
when a workload present in both reports has a different allocation
``fingerprint``: a faster engine that picks differently is a behavior
change, not a speedup.

``--dataflow`` gates the analysis kernels instead: per allocator, the
chaitin-normalized combined dataflow time — every profiled phase whose
leaf is ``liveness``, ``interference`` or ``CPG`` (parents are
inclusive of their sub-phases, so ``solve``/``rows``/``closure``
children are not double-counted) — must stay within tolerance of the
committed report.

``--edit`` gates ``BENCH_edit_churn.json`` reports.  Scratch and
incremental latencies come from the same run on the same machine, so
the ``speedup`` figure is already runner-independent and is checked two
ways: against an absolute floor (2.0x — the edit path's reason to
exist) scaled by the tolerance for noisy smoke runs, and against the
committed report's speedup within tolerance.  Every fresh report must
also carry ``fingerprints_identical`` — the bench asserts per-edit
result digests match the scratch path, and the flag proves the
assertion ran — and, when it has value edits, a nonzero
``colorings_reused``: the speedup alone cannot tell a round-0 coloring
carry that silently stopped firing from one that works.

``--policy`` gates ``BENCH_policy_tuning.json`` reports.  The tuner's
measurements are *simulated* cycle totals — deterministic, so unlike
every wall-clock gate they are compared for exact equality: per family
the fresh default and tuned measurements must byte-match the committed
report (a drift means allocator behavior changed and the preset's
provenance is stale), the tuned side must not regress cycles on any
family, at least one family must strictly improve, and the fresh
report's best-policy digest must match the committed one (proving the
committed ``tuned_v1`` preset is the policy the report describes).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def ratios(report: dict, base: str = "chaitin") -> dict[str, float]:
    allocators = report["allocators"]
    base_s = allocators[base]["best_s"]
    if base_s <= 0:
        raise SystemExit(f"degenerate baseline time for {base!r}: {base_s}")
    return {
        name: entry["best_s"] / base_s for name, entry in allocators.items()
    }


def check_selector(fresh: dict, committed: dict,
                   tolerance: float) -> list[str]:
    """Gate a selector-scaling report against the committed baseline."""
    failures = []
    committed_w = {w["name"]: w for w in committed["workloads"]}
    fresh_w = {w["name"]: w for w in fresh["workloads"]}
    print(f"{'workload':>12} {'committed':>10} {'fresh':>10} {'margin':>8}")
    for name, want_entry in sorted(committed_w.items()):
        got_entry = fresh_w.get(name)
        want = want_entry["select_ratio_vs_chaitin"]
        if got_entry is None:
            print(f"{name:>12} {want:>10.3f} {'absent':>10} {'':>8}")
            continue
        got = got_entry["select_ratio_vs_chaitin"]
        margin = got / want - 1.0
        flag = " REGRESSION" if margin > tolerance else ""
        same = got_entry.get("fingerprint") == want_entry.get("fingerprint")
        if not same:
            flag += " FINGERPRINT"
        print(f"{name:>12} {want:>10.3f} {got:>10.3f} {margin:>+7.0%}{flag}")
        if margin > tolerance:
            failures.append(
                f"{name}: select+simplify at {got:.3f}x chaitin vs "
                f"committed {want:.3f}x (+{margin:.0%} > +{tolerance:.0%})"
            )
        if not same:
            failures.append(
                f"{name}: allocation fingerprint "
                f"{got_entry.get('fingerprint')} differs from committed "
                f"{want_entry.get('fingerprint')}"
            )
    return failures


#: profiled-phase leaves that make up the combined dataflow metric
DATAFLOW_LEAVES = ("liveness", "interference", "CPG")


def dataflow_seconds(entry: dict) -> float:
    """Combined liveness+interference+CPG seconds of one allocator."""
    phases = entry.get("phases") or {}
    return sum(
        v["s"] for path, v in phases.items()
        if path.rsplit("/", 1)[-1] in DATAFLOW_LEAVES
    )


def check_dataflow(fresh: dict, committed: dict,
                   tolerance: float) -> list[str]:
    """Gate the chaitin-normalized dataflow phase time per allocator."""
    base_fresh = fresh["allocators"]["chaitin"]["best_s"]
    base_committed = committed["allocators"]["chaitin"]["best_s"]
    if base_fresh <= 0 or base_committed <= 0:
        raise SystemExit("degenerate chaitin baseline time")

    failures = []
    print(f"{'allocator':>16} {'committed':>10} {'fresh':>10} {'margin':>8}")
    for name, want_entry in sorted(committed["allocators"].items()):
        want_s = dataflow_seconds(want_entry)
        got_entry = fresh["allocators"].get(name)
        if got_entry is None or want_s <= 0:
            state = "absent" if got_entry is None else "no-phases"
            print(f"{name:>16} {want_s:>10.4f} {state:>10} {'':>8}")
            continue
        want = want_s / base_committed
        got = dataflow_seconds(got_entry) / base_fresh
        margin = got / want - 1.0
        flag = " REGRESSION" if margin > tolerance else ""
        print(f"{name:>16} {want:>10.3f} {got:>10.3f} {margin:>+7.0%}{flag}")
        if margin > tolerance:
            failures.append(
                f"{name}: dataflow phases at {got:.3f}x chaitin vs "
                f"committed {want:.3f}x (+{margin:.0%} > +{tolerance:.0%})"
            )
    return failures


#: absolute speedup floor for value-rung edit churn
EDIT_SPEEDUP_FLOOR = 2.0


def check_edit(fresh: dict, committed: dict, tolerance: float) -> list[str]:
    """Gate an edit-churn report: speedup floor + exactness flags."""
    for side, report in (("fresh", fresh), ("committed", committed)):
        if report.get("kind") != "edit_churn":
            raise SystemExit(
                f"{side} report is not an edit_churn report; "
                "regenerate it with bench_edit_churn.py"
            )
    failures = []
    if not fresh.get("fingerprints_identical"):
        failures.append("fresh report lacks fingerprints_identical — the "
                        "bench's exactness assertions did not run clean")
    got, want = fresh["speedup"], committed["speedup"]
    floor = EDIT_SPEEDUP_FLOOR * (1 - tolerance)
    margin = got / want - 1.0
    flag = " REGRESSION" if (-margin > tolerance or got < floor) else ""
    print(f"{'edit speedup':>16} {want:>10.2f} {got:>10.2f} "
          f"{margin:>+7.0%}{flag}  (floor {floor:.2f})")
    if got < floor:
        failures.append(
            f"incremental speedup {got:.2f}x below the "
            f"{EDIT_SPEEDUP_FLOOR:.1f}x floor (tolerance-scaled "
            f"{floor:.2f})")
    if -margin > tolerance:
        failures.append(
            f"speedup {got:.2f}x vs committed {want:.2f}x "
            f"(-{-margin:.0%} worse than -{tolerance:.0%} allowed)")
    hit_ratio = fresh["incremental"].get("session_hit_ratio", 0)
    if hit_ratio <= 0:
        failures.append("session store fielded no hits — every edit "
                        "rebuilt from scratch")
    if fresh.get("edits", 0) > 0 \
            and not fresh["incremental"].get("colorings_reused", 0):
        failures.append("no value edit reused its round-0 coloring — "
                        "the session's coloring carry stopped firing")
    return failures


def check_policy(fresh: dict, committed: dict) -> list[str]:
    """Gate a policy-tuning report: exact reproduction + no regression."""
    for side, report in (("fresh", fresh), ("committed", committed)):
        if report.get("type") != "policy_tuning":
            raise SystemExit(
                f"{side} report is not a policy_tuning report; "
                "regenerate it with tune_policy.py"
            )
    failures = []
    if "best" not in committed:
        raise SystemExit("committed report carries no winning policy")
    if fresh.get("best", {}).get("digest") != committed["best"]["digest"]:
        failures.append(
            "best-policy digest mismatch: fresh "
            f"{fresh.get('best', {}).get('digest')!r} vs committed "
            f"{committed['best']['digest']!r}"
        )
    improved = False
    print(f"{'family':>12} {'default':>10} {'tuned':>10} {'delta':>8}")
    for name, want in sorted(committed["families"].items()):
        got = fresh["families"].get(name)
        if got is None:
            failures.append(f"{name}: family missing from fresh report")
            continue
        for side in ("default", "tuned"):
            if got.get(side) != want.get(side):
                failures.append(
                    f"{name}: fresh {side} measurement differs from "
                    f"committed — allocator behavior drifted "
                    f"(fresh {got.get(side)!r} vs {want.get(side)!r})"
                )
        base = got["default"]["cycles"]
        tuned = got["tuned"]["cycles"]
        print(f"{name:>12} {base:>10.0f} {tuned:>10.0f} "
              f"{tuned - base:>+8.0f}")
        if tuned > base:
            failures.append(
                f"{name}: tuned policy regresses cycles "
                f"({tuned:.0f} > {base:.0f})"
            )
        if tuned < base:
            improved = True
    if not improved:
        failures.append("tuned policy improves cycles on no family")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, help="report from this run")
    parser.add_argument("committed", type=Path,
                        help="committed baseline report")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed relative slowdown per allocator "
                             "(default 0.40; CI smoke runs few repeats)")
    parser.add_argument("--selector", action="store_true",
                        help="gate BENCH_selector_scaling.json reports on "
                             "chaitin-normalized select+simplify time")
    parser.add_argument("--dataflow", action="store_true",
                        help="gate the chaitin-normalized combined "
                             "liveness+interference+CPG phase time per "
                             "allocator")
    parser.add_argument("--edit", action="store_true",
                        help="gate BENCH_edit_churn.json reports on the "
                             "incremental-vs-scratch speedup floor, the "
                             "committed speedup, and the exactness flags")
    parser.add_argument("--policy", action="store_true",
                        help="gate BENCH_policy_tuning.json reports on "
                             "exact measurement reproduction, the "
                             "no-regression rule, and the preset digest")
    args = parser.parse_args(argv)
    if sum((args.selector, args.dataflow, args.edit, args.policy)) > 1:
        parser.error("--selector, --dataflow, --edit and --policy are "
                     "mutually exclusive")

    fresh = json.loads(args.fresh.read_text())
    committed = json.loads(args.committed.read_text())

    if args.policy:
        failures = check_policy(fresh, committed)
        if failures:
            print("\npolicy tuning gate FAILED:", file=sys.stderr)
            for line in failures:
                print(f"  - {line}", file=sys.stderr)
            return 1
        print("\npolicy tuning gate passed (exact reproduction)")
        return 0

    if args.edit:
        failures = check_edit(fresh, committed, args.tolerance)
        if failures:
            print("\nedit churn perf gate FAILED:", file=sys.stderr)
            for line in failures:
                print(f"  - {line}", file=sys.stderr)
            return 1
        print("\nedit churn perf gate passed "
              f"(tolerance {args.tolerance:.0%})")
        return 0

    if args.dataflow:
        failures = check_dataflow(fresh, committed, args.tolerance)
        if failures:
            print("\ndataflow perf regression gate FAILED:", file=sys.stderr)
            for line in failures:
                print(f"  - {line}", file=sys.stderr)
            return 1
        print("\ndataflow perf regression gate passed "
              f"(tolerance +{args.tolerance:.0%})")
        return 0

    if args.selector:
        failures = check_selector(fresh, committed, args.tolerance)
        if failures:
            print("\nselector perf regression gate FAILED:", file=sys.stderr)
            for line in failures:
                print(f"  - {line}", file=sys.stderr)
            return 1
        print("\nselector perf regression gate passed "
              f"(tolerance +{args.tolerance:.0%})")
        return 0

    fresh_r, committed_r = ratios(fresh), ratios(committed)

    failures = []
    print(f"{'allocator':>16} {'committed':>10} {'fresh':>10} {'margin':>8}")
    for name, want in sorted(committed_r.items()):
        got = fresh_r.get(name)
        if got is None:
            print(f"{name:>16} {want:>10.2f} {'absent':>10} {'':>8}")
            continue
        margin = got / want - 1.0
        flag = " REGRESSION" if margin > args.tolerance else ""
        print(f"{name:>16} {want:>10.2f} {got:>10.2f} {margin:>+7.0%}{flag}")
        if margin > args.tolerance:
            failures.append(
                f"{name}: {got:.2f}x chaitin vs committed {want:.2f}x "
                f"(+{margin:.0%} > +{args.tolerance:.0%})"
            )

    if "speedup_full" in committed and "speedup_full" in fresh:
        # speedup_full divides a fixed historical constant by full's
        # absolute time, so normalize it by the chaitin times too.
        scale = (fresh["allocators"]["chaitin"]["best_s"]
                 / committed["allocators"]["chaitin"]["best_s"])
        normalized = fresh["speedup_full"] * scale
        floor = committed["speedup_full"] * (1 - args.tolerance)
        print(f"{'speedup_full':>16} {committed['speedup_full']:>10.2f} "
              f"{normalized:>10.2f} (normalized; floor {floor:.2f})")
        if normalized < floor:
            failures.append(
                f"speedup_full: {normalized:.2f} normalized < {floor:.2f}"
            )

    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print("\nperf regression gate passed "
          f"(tolerance +{args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
