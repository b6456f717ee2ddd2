"""Spill-round re-analysis: carrying the CFG must equal a rebuild.

Every spill round re-analyzes the spill-rewritten function from scratch
except for the CFG and loop nest, which
:meth:`~repro.regalloc.base.RoundAnalyses.apply_delta` carries over
because spill code is branch-free.  The contract under test: on every
spill round the carried objects are the previous round's, and the
analyses are *value-identical* to a full :func:`compute_round_analyses`
(the oracle, ``tests/oracles.py``) — so the whole allocation (stats,
assignment, cycle estimate) is byte-identical to one that rebuilds the
CFG every round.
"""

from __future__ import annotations

import pytest

from oracles import compare_analyses, scratch_rounds, validate_rounds
from repro.analysis.renumber import renumber
from repro.core import PreferenceDirectedAllocator
from repro.ir.function import Module
from repro.pipeline import allocate_module, prepare_module
from repro.regalloc import CallCostAllocator, ChaitinAllocator
from repro.regalloc.base import (
    RoundContext,
    compute_round_analyses,
)
from repro.regalloc.spill import insert_spill_code
from repro.target.presets import make_machine
from repro.workloads.spillstress import (
    spill_stress_function,
    spill_stress_module,
)


def small_stress_module(n_functions: int = 1) -> Module:
    """A spill-stress module scaled down for test runtime.

    On ``make_machine(8)`` each function still takes 4 allocation
    rounds (3 spill rounds).
    """
    module = Module("stress")
    for i in range(n_functions):
        module.add(spill_stress_function(
            f"f{i}", n_segments=9, hot_every=3, hot_pressure=12,
            cold_pressure=2, cold_chain=6, trips=2,
        ))
    return module


def drive_spill_rounds(func, machine, allocator, max_rounds=8):
    """Replay the Figure 8 loop, yielding (previous, carried, fresh)
    analyses per spill round.

    Mirrors :func:`allocate_function`'s sequencing: renumber, analyze,
    color, insert spill code, renumber again, then re-analyze through
    :meth:`RoundAnalyses.apply_delta` while also recomputing from
    scratch.
    """
    renumber(func)
    analyses = compute_round_analyses(func)
    for round_index in range(max_rounds):
        ctx = RoundContext(
            func=func, machine=machine, cfg=analyses.cfg,
            loops=analyses.loops, liveness=analyses.liveness,
            ig=analyses.ig, spill_costs=analyses.spill_costs,
            round_index=round_index,
        )
        outcome = allocator.allocate_round(ctx)
        if not outcome.spilled:
            return
        insert_spill_code(func, outcome.spilled)
        renumber(func, cfg=analyses.cfg)
        carried = analyses.apply_delta(func)
        fresh = compute_round_analyses(func)
        yield analyses, carried, fresh
        analyses = carried


class TestPatchEqualsRebuild:
    @pytest.mark.parametrize("allocator_cls",
                             [ChaitinAllocator, CallCostAllocator,
                              PreferenceDirectedAllocator])
    def test_every_spill_round_value_identical(self, allocator_cls):
        machine = make_machine(8)
        module = prepare_module(small_stress_module(), machine)
        func = module.functions[0]
        rounds = 0
        for prev, carried, fresh in drive_spill_rounds(
                func, machine, allocator_cls()):
            rounds += 1
            # Spill code is branch-free: the very same objects are reused.
            assert carried.cfg is prev.cfg
            assert carried.loops is prev.loops
            assert compare_analyses(carried, fresh) == []
        assert rounds >= 3, f"workload only forced {rounds} spill rounds"

    def test_patch_preserves_cfg_and_loops(self):
        machine = make_machine(8)
        module = prepare_module(small_stress_module(), machine)
        func = module.functions[0]
        renumber(func)
        analyses = compute_round_analyses(func)
        ctx = RoundContext(
            func=func, machine=machine, cfg=analyses.cfg,
            loops=analyses.loops, liveness=analyses.liveness,
            ig=analyses.ig, spill_costs=analyses.spill_costs,
            round_index=0,
        )
        outcome = ChaitinAllocator().allocate_round(ctx)
        assert outcome.spilled
        insert_spill_code(func, outcome.spilled)
        renumber(func, cfg=analyses.cfg)
        patched = analyses.apply_delta(func)
        assert patched is not None
        # Spill code is branch-free: the very same objects are reused.
        assert patched.cfg is analyses.cfg
        assert patched.loops is analyses.loops


class TestEndToEndIdentity:
    @pytest.mark.parametrize("allocator_cls",
                             [ChaitinAllocator, CallCostAllocator,
                              PreferenceDirectedAllocator])
    def test_stats_assignment_cycles_identical(self, allocator_cls):
        machine = make_machine(8)
        prepared = prepare_module(small_stress_module(2), machine)
        on = allocate_module(prepared, machine, allocator_cls())
        with scratch_rounds():
            off = allocate_module(prepared, machine, allocator_cls())
        assert on.stats.rounds >= 3
        assert vars(on.stats) == vars(off.stats)
        for a, b in zip(on.results, off.results):
            assert a.assignment == b.assignment
        cyc = lambda c: {f: getattr(c, f) for f in c.__dataclass_fields__}
        assert cyc(on.cycles) == cyc(off.cycles)

    def test_validate_mode_runs_clean(self):
        # The validate harness recomputes every spill round from
        # scratch and raises on any divergence from production.
        machine = make_machine(8)
        prepared = prepare_module(small_stress_module(), machine)
        with validate_rounds():
            result = allocate_module(prepared, machine, ChaitinAllocator())
        assert result.stats.rounds >= 3

    def test_validate_harness_catches_corrupted_patch(self, monkeypatch):
        from oracles import OracleMismatch
        from repro.regalloc import base as regalloc_base

        real = regalloc_base.RoundAnalyses.apply_delta

        def corrupted(self, func):
            got = real(self, func)
            if got.spill_costs:
                victim = next(iter(got.spill_costs))
                got.spill_costs[victim] += 1.0
            return got

        monkeypatch.setattr(regalloc_base.RoundAnalyses, "apply_delta",
                            corrupted)
        machine = make_machine(8)
        prepared = prepare_module(small_stress_module(), machine)
        with validate_rounds():
            with pytest.raises(OracleMismatch, match="spill costs differ"):
                allocate_module(prepared, machine, ChaitinAllocator())


class TestWorkloadShape:
    def test_spillstress_localizes_touched_blocks(self):
        # Spills must stay confined to the hot segments, not smear
        # across the whole function (the shape the workload promises).
        machine = make_machine(8)
        module = prepare_module(spill_stress_module(n_functions=1), machine)
        func = module.functions[0]
        renumber(func)
        analyses = compute_round_analyses(func)
        ctx = RoundContext(
            func=func, machine=machine, cfg=analyses.cfg,
            loops=analyses.loops, liveness=analyses.liveness,
            ig=analyses.ig, spill_costs=analyses.spill_costs,
            round_index=0,
        )
        outcome = ChaitinAllocator().allocate_round(ctx)
        assert outcome.spilled
        sizes = {blk.label: len(blk.instrs) for blk in func.blocks}
        insert_spill_code(func, outcome.spilled)
        # Every rewritten block gains a reload or a store.
        touched = sum(1 for blk in func.blocks
                      if len(blk.instrs) != sizes[blk.label])
        assert 0 < touched < len(func.blocks) / 3
