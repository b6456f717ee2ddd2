"""The round's cost tables against a set-based recount.

:class:`~repro.core.costs.CostModel` reads the round's spill costs and
takes call crossings and each move's live-after mask from one mask walk;
:func:`~repro.sim.cycles.estimate_cycles` counts a call's volatile
crossings on masks.  Both are recounted here from the set-based
reference liveness of ``tests/oracles.py``, on every suite function at
K=16 in four shapes: as generated (calls define virtual registers),
prepared for round 0, after one spill round, and allocated.
"""

from __future__ import annotations

import pytest

from oracles import compute_liveness_reference, instruction_liveness_reference
from repro.analysis.renumber import renumber
from repro.cfg.analysis import build_cfg
from repro.cfg.loops import compute_loops
from repro.core import PreferenceDirectedAllocator
from repro.core.costs import CostModel
from repro.ir.clone import clone_function
from repro.ir.instructions import Call, Move
from repro.ir.values import VReg
from repro.pipeline import allocate_module, prepare_module
from repro.regalloc import AllocationOptions
from repro.regalloc.base import compute_round_analyses
from repro.regalloc.spill import insert_spill_code
from repro.sim.cycles import estimate_cycles
from repro.target.presets import make_machine
from repro.workloads import make_suite
from repro.workloads.profiles import BENCHMARK_NAMES

MACHINE = make_machine(16)


def recount(func, machine):
    """Spill costs, call crossings, move savings and caller-save cycles
    of ``func``, straight from the appendix definitions over the
    reference liveness's live sets."""
    cfg = build_cfg(func)
    loops = compute_loops(cfg)
    after = instruction_liveness_reference(
        func, compute_liveness_reference(func, cfg))
    spill: dict = {}
    cross: dict = {}
    savings: list = []
    caller_save = 0.0
    for blk in func.blocks:
        freq = loops.freq(blk.label)
        for instr in blk.instrs:
            for u in instr.uses():
                if isinstance(u, VReg):
                    spill[u] = spill.get(u, 0.0) + 2 * freq
            for d in instr.defs():
                if isinstance(d, VReg):
                    spill[d] = spill.get(d, 0.0) + 1 * freq
            live = after[id(instr)]
            if isinstance(instr, Call):
                for reg in live - set(instr.defs()):
                    if isinstance(reg, VReg):
                        cross[reg] = cross.get(reg, 0.0) + freq
                    elif machine.is_volatile(reg):
                        caller_save += 3.0 * freq
            elif isinstance(instr, Move):
                for v in (instr.dst, instr.src):
                    if isinstance(v, VReg):
                        saved = v == instr.dst or v not in live
                        savings.append((v, instr, freq if saved else 0.0))
    return spill, cross, savings, caller_save


def check_costs(func, costs) -> None:
    spill, cross, savings, _ = recount(func, MACHINE)
    for v in func.vregs():
        assert costs.spill_cost(v) == spill.get(v, 0.0), (func.name, v)
        assert costs.cross_freq(v) == cross.get(v, 0.0), (func.name, v)
        assert costs.crosses_calls(v) == (v in cross), (func.name, v)
    for v, mv, want in savings:
        assert costs.move_saving(v, mv) == want, (func.name, v, str(mv))


def check_cycles(func) -> None:
    *_, want = recount(func, MACHINE)
    got = estimate_cycles(func, MACHINE).caller_save_cycles
    assert got == want, (func.name, got, want)


def round_costs(func, analyses) -> CostModel:
    """The cost model as the allocator builds it for a round."""
    return CostModel(func, MACHINE, analyses.cfg, analyses.loops,
                     analyses.liveness, spill_costs=analyses.spill_costs)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_cost_tables_match_set_recount(name):
    module = make_suite([name])[name]
    prepared = prepare_module(module, MACHINE)
    for source, ready in zip(module.functions, prepared.functions):
        # As generated: a call defines its virtual result, which the
        # crossing mask must leave out.
        raw = clone_function(source)
        check_costs(raw, CostModel(raw, MACHINE))
        check_cycles(raw)

        # Round 0: the return register defined by each call is live
        # after it and volatile, but crosses nothing.
        func = clone_function(ready)
        renumber(func)
        analyses = compute_round_analyses(func)
        check_costs(func, round_costs(func, analyses))
        check_cycles(func)

        # One spill round over a fixed quarter of the live ranges.
        spilled = {v for v in func.vregs()
                   if v.id % 4 == 0 and not v.no_spill}
        insert_spill_code(func, spilled)
        renumber(func, cfg=analyses.cfg)
        analyses = analyses.apply_delta(func)
        check_costs(func, round_costs(func, analyses))
        check_cycles(func)

    run = allocate_module(prepared, MACHINE, PreferenceDirectedAllocator(),
                          AllocationOptions())
    for result in run.results:
        check_cycles(result.func)

