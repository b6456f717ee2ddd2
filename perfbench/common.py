"""Helpers shared by the workloads: statistics, checks, stamps, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.config import knob_env_snapshot, runtime_knobs
from repro.errors import ReproError
from repro.ir.clone import clone_function
from repro.ir.function import Function
from repro.ir.instructions import Call
from repro.ir.parser import parse_module
from repro.pipeline import prepare_function
from repro.regalloc.verify import verify_allocation
from repro.reporting import canonical_json
from repro.sim.interp import run_function
from repro.sim.ops import Memory
from repro.target.machine import TargetMachine

ROOT = Path(__file__).resolve().parent.parent

#: asyncio's default StreamReader limit: the server's ``readline`` drops a
#: longer request line without replying (see perfbench/README.md).
REQUEST_LINE_LIMIT = 2 ** 16


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100), interpolating between ranks.

    Same definition as ``statistics.quantiles(method="inclusive")`` and
    numpy's default: rank ``q/100 * (n-1)`` of the sorted samples.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be within [0, 100], got {q}")
    ordered = sorted(samples)
    rank = q / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(samples) -> float:
    return percentile(samples, 50)


class Tally:
    """Attempted and failed ops, with the first reason of each kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.examples: dict[str, str] = {}

    def fail(self, kind: str, detail: str = "") -> None:
        self.failures[kind] += 1
        self.examples.setdefault(kind, detail[:300])

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


_LABEL_HEADER = re.compile(r"^\s*([\w.]+):", re.MULTILINE)


def _calls(func: Function) -> list[Call]:
    return [instr for blk in func.blocks for instr in blk.instrs
            if isinstance(instr, Call)]


def parse_allocated(code: str, sources: list[Function],
                    machine: TargetMachine) -> list[Function]:
    """The functions of a server reply's allocated ``code``.

    The IR text is not a faithful round trip of allocated code, so two
    things are restored; neither depends on the allocator:

    * blocks made by edge splitting print with dotted labels
      (``loop1.loop1.1``), which the parser's label syntax rejects, so
      each dotted label is renamed (dots to ``__``) at every occurrence;
    * a lowered call prints without the return register it clobbers
      (``reg_defs``); allocation neither adds, drops nor reorders calls,
      so each call gets the clobbers of the same call in the prepared
      (lowered, unallocated) source.
    """
    dotted = {m.group(1) for m in _LABEL_HEADER.finditer(code)
              if "." in m.group(1)}
    if dotted:
        names = "|".join(map(re.escape, sorted(dotted, key=len,
                                               reverse=True)))
        code = re.sub(rf"(?<![\w.])({names})(?![\w.])",
                      lambda m: m.group(1).replace(".", "__"), code)
    funcs = parse_module(code).functions
    by_name = {f.name: f for f in sources}
    for func in funcs:
        if func.name not in by_name:
            continue
        prepared = prepare_function(clone_function(by_name[func.name]),
                                    machine)
        want, got = _calls(prepared), _calls(func)
        if len(want) == len(got):
            for ref, call in zip(want, got):
                call.reg_defs = list(ref.reg_defs)
    return funcs


def code_instrs(func: Function) -> int:
    return sum(len(blk.instrs) for blk in func.blocks)


def check_allocation(source: Function, allocated: Function,
                     machine: TargetMachine, args: list) -> str | None:
    """Why ``allocated`` is wrong for ``source``, or None when it is right.

    Independent of the allocator: the verifier's structural checks, then
    the interpreter runs both versions on the same arguments and fresh
    memories; the return value and every memory write must agree.
    """
    try:
        verify_allocation(allocated, machine)
    except ReproError as err:
        return f"verify: {err}"
    want_mem, got_mem = Memory(), Memory()
    try:
        want = run_function(source, args, machine=machine, memory=want_mem)
        got = run_function(allocated, args, machine=machine, memory=got_mem)
    except ReproError as err:
        return f"interp: {err}"
    if want.value != got.value:
        return f"interp: returned {got.value!r}, source {want.value!r}"
    if want_mem._cells != got_mem._cells:
        return "interp: memory writes differ from the source"
    return None


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (VmHWM) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024


def refuse_knobs() -> None:
    """Exit when strategy knobs would change what the benchmark times."""
    knobs = knob_env_snapshot()
    if knobs:
        sys.exit(f"perfbench: refusing to run with strategy knobs set: "
                 f"{sorted(knobs)}; unset them so every run times the "
                 f"default paths")


def clean_env() -> dict:
    """This process's environment minus every ``REPRO_*`` variable, with
    ``src`` on the path: what the served program starts with."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _commit() -> str:
    """HEAD of the repository rooted at ``ROOT``, if it is one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _source_digest() -> str:
    """Content digest of ``src/``: identifies the code when git cannot."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpus": os.cpu_count(),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "knobs": runtime_knobs(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def counter_delta(before: dict, after: dict, key: str) -> int:
    """Growth of a server ``stats`` counter between two snapshots."""
    return (after["metrics"]["counters"][key]
            - before["metrics"]["counters"][key])


def emit(info: dict, tally: Tally, metrics: dict) -> None:
    """Print the run's record, then the result object as the last line."""
    info = {**info, "attempted": tally.attempted,
            "failures": dict(tally.failures),
            "failure_examples": tally.examples}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
