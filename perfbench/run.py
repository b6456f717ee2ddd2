#!/usr/bin/env python3
"""The repository's benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload compile|serve|edit --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Inputs come from ``--seed`` alone.  Every output is checked outside the
timed window.  The last line of standard output is the result object:
with ``--trace 0`` it carries every end-to-end metric named in
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric (a layer
the workload bypasses reads 0).  The line before it is a JSON record
of the run (seed, host, versions, sample counts, failures and, when
traced, the phase tree).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

WORKLOADS = ("compile", "serve", "edit")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'repro'} is missing; run from the "
                 f"root of a repository checkout")
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def select_metrics(metrics: dict, specs: list, fill_missing: bool) -> dict:
    """``metrics`` in BENCHMARK.json order, units checked against it."""
    out = {}
    for spec in specs:
        name = spec["name"]
        entry = metrics.pop(name, None)
        if entry is None:
            if not fill_missing:
                raise KeyError(f"workload did not measure {name}")
            entry = {"value": 0, "unit": spec["unit"]}
        if entry["unit"] != spec["unit"]:
            raise ValueError(f"{name}: unit {entry['unit']} != "
                             f"{spec['unit']} in BENCHMARK.json")
        out[name] = entry
    if metrics:
        raise KeyError(f"metrics missing from BENCHMARK.json: "
                       f"{sorted(metrics)}")
    return out


def main(argv=None) -> None:
    args = parse_args(argv)
    import_program()
    from common import Tally, emit, refuse_knobs, stamp

    refuse_knobs()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = importlib.import_module(f"{args.workload}_wl")
    info = stamp(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = Tally()
    measured, details = workload.run(args.seed, args.seconds,
                                     bool(args.trace), tally)
    info.update(details)
    if args.trace:
        metrics = select_metrics(measured, spec["per_layer"], True)
    else:
        metrics = select_metrics(measured, spec["end_to_end"], False)
    emit(info, tally, metrics)


if __name__ == "__main__":
    main()
