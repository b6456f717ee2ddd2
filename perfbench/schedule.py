"""Seeded input generation for the three workloads.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical inputs, so two runs (or two commits) time the same
work.  The program under test only ever receives the generated IR.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.ir.function import Function, Module
from repro.ir.instructions import ConstInst
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.workloads import (
    BENCHMARK_NAMES,
    SPEC_PROFILES,
    generate_function,
    make_suite,
    spill_stress_module,
)

#: compile: functions drawn by seed per SPEC-like profile (7 profiles),
#: on top of the fixed reference suite; few, so the latency median moves
#: little with the seed
COMPILE_DRAWN_PER_PROFILE = 4
COMPILE_ALLOCATORS = ("chaitin", "full")

#: serve: every group of this many requests opens one new class (at a
#: seeded position) and repeats earlier classes otherwise: 4 in 5 repeat
SERVE_GROUP = 5
SERVE_CLASS_SIZES = (2, 4)

#: edit: every group of this many versions holds one structural edit (at
#: a seeded position); the rest are value edits, so the mix is exactly 3:1
EDIT_GROUP = 4


@dataclass(frozen=True)
class CompileOp:
    """One compile op: function ``index`` allocated by ``allocator``."""

    index: int
    allocator: str


def compile_inputs(seed: int) -> tuple[list[Function], list[CompileOp], int]:
    """The functions, the shuffled op order, and the reference count.

    The first functions are the fixed reference suite (the seven
    SPEC-like modules of ``make_suite()``, 88 functions): the same for
    every seed, so sums over them are comparable across seeds.  After
    them come functions drawn by seed, round-robin over the profiles so
    each contributes equally.  The seed also shuffles the op order.
    """
    rng = random.Random(f"compile:{seed}")
    funcs = [f for module in make_suite().values() for f in module.functions]
    reference = len(funcs)
    for i in range(COMPILE_DRAWN_PER_PROFILE * len(BENCHMARK_NAMES)):
        profile = BENCHMARK_NAMES[i % len(BENCHMARK_NAMES)]
        funcs.append(generate_function(f"{profile}_s{i}",
                                       SPEC_PROFILES[profile],
                                       rng.randrange(1 << 30)))
    ops = [CompileOp(i, name) for i in range(len(funcs))
           for name in COMPILE_ALLOCATORS]
    rng.shuffle(ops)
    return funcs, ops, reference


def serve_class(index: int) -> Module:
    """Request class ``index``: 2-4 seeded functions of distinct profiles.

    The classes are a fixed code base, the same for every workload seed
    (which shapes the traffic instead), so the set of classes a run
    allocates, and the quality sums over it, do not vary with the seed.
    """
    rng = random.Random(f"serve-class:{index}")
    module = Module(f"class{index}")
    size = SERVE_CLASS_SIZES[0] + index % (SERVE_CLASS_SIZES[1]
                                           - SERVE_CLASS_SIZES[0] + 1)
    for j, profile in enumerate(rng.sample(BENCHMARK_NAMES, size)):
        module.add(generate_function(f"{profile}_c{index}_{j}",
                                     SPEC_PROFILES[profile],
                                     rng.randrange(1 << 30)))
    return module


def serve_schedule(seed: int, length: int) -> list[int]:
    """Class index of each request, in send order.

    Each group of :data:`SERVE_GROUP` requests opens the next new class
    at one seeded position (the first group at position 0) and repeats
    uniformly drawn earlier classes elsewhere, so every prefix of the
    schedule repeats close to 4 requests in 5.
    """
    rng = random.Random(f"serve-schedule:{seed}")
    schedule = []
    classes = 0
    for n in range(length):
        if n % SERVE_GROUP == 0:
            new_at = n + (rng.randrange(SERVE_GROUP) if n else 0)
        if n == new_at:
            schedule.append(classes)
            classes += 1
        else:
            schedule.append(rng.randrange(classes))
    return schedule


def edit_base() -> str:
    """The edited module: one spill-stress function (~30 KB of IR)."""
    return print_module(spill_stress_module(1))


def _const_sites(func: Function) -> list[tuple[str, int]]:
    return [(blk.label, i) for blk in func.blocks
            for i, instr in enumerate(blk.instrs)
            if isinstance(instr, ConstInst) and isinstance(instr.value, int)]


def edit_chain(seed: int, length: int) -> list[tuple[str, str]]:
    """``[(kind, ir), ...]``: each version is one edit of the previous.

    ``value`` edits bump one integer constant (the session layer's value
    rung); ``struct`` edits insert a dead constant (the struct rung).
    Constants only ever grow, so no version repeats an earlier body.
    The mix is stratified so every prefix of the chain has close to
    the target share of each kind.
    """
    rng = random.Random(f"edit:{seed}")
    module = parse_module(edit_base())
    func = module.functions[0]
    sites = _const_sites(func)
    versions = []
    for n in range(length):
        if n % EDIT_GROUP == 0:
            struct_at = n + rng.randrange(EDIT_GROUP)
        if n != struct_at:
            kind = "value"
            label, i = sites[rng.randrange(len(sites))]
            func.block_map()[label].instrs[i].value += rng.randrange(1, 9)
        else:
            kind = "struct"
            blk = func.blocks[rng.randrange(len(func.blocks))]
            # Never in front of a phi or behind the terminator.
            blk.instrs.insert(rng.randrange(len(blk.phis()),
                                            len(blk.instrs)),
                              ConstInst(func.new_vreg(), rng.randrange(64)))
            sites = _const_sites(func)
        versions.append((kind, print_module(module)))
    return versions


def interp_args(func: Function, seed: int, key: str) -> list[int]:
    """Deterministic word-aligned pointer-ish arguments for ``func``."""
    rng = random.Random(f"args:{seed}:{key}")
    return [rng.randrange(16, 512, 4) for _ in func.params]
