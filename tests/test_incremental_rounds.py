"""Incremental spill-round re-analysis: the patch must equal a rebuild.

The contract under test (see ``repro.analysis.incremental``): for every
spill round, patching the previous round's analyses through the
``SpillDelta`` yields *value-identical* liveness, interference (including
node insertion order), spill costs, and per-block summaries to a
from-scratch :func:`compute_round_analyses` (the oracle,
``tests/oracles.py``) — and therefore the whole allocation (stats,
assignment, cycle estimate) is byte-identical to one that re-analyzes
every round from scratch.
"""

from __future__ import annotations

import pytest

from oracles import compare_analyses, scratch_rounds, validate_rounds
from repro.analysis.incremental import apply_spill_delta
from repro.analysis.renumber import renumber
from repro.core import PreferenceDirectedAllocator
from repro.ir.function import Module
from repro.pipeline import allocate_module, prepare_module
from repro.regalloc import CallCostAllocator, ChaitinAllocator
from repro.regalloc.base import (
    RoundContext,
    compute_round_analyses,
)
from repro.regalloc.spill import SpillDelta, insert_spill_code
from repro.target.presets import make_machine
from repro.workloads.spillstress import (
    spill_stress_function,
    spill_stress_module,
)


def small_stress_module(n_functions: int = 1) -> Module:
    """A spill-stress module scaled down for test runtime.

    On ``make_machine(8)`` each function still takes 4 allocation
    rounds (3 spill rounds), so every incremental code path runs.
    """
    module = Module("stress")
    for i in range(n_functions):
        module.add(spill_stress_function(
            f"f{i}", n_segments=9, hot_every=3, hot_pressure=12,
            cold_pressure=2, cold_chain=6, trips=2,
        ))
    return module


def drive_spill_rounds(func, machine, allocator, max_rounds=8):
    """Replay the Figure 8 loop, yielding (patched, fresh) per spill round.

    Mirrors :func:`allocate_function`'s sequencing: renumber, analyze,
    color, insert spill code, renumber again, then patch the previous
    analyses through the delta while also recomputing from scratch.
    """
    renumber(func)
    analyses = compute_round_analyses(func, collect_deltas=True)
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
        report = insert_spill_code(func, outcome.spilled)
        ren = renumber(func, cfg=analyses.cfg)
        patched = analyses.apply_delta(func, report.delta, ren)
        fresh = compute_round_analyses(func, collect_deltas=True)
        yield patched, fresh
        analyses = fresh


class TestPatchEqualsRebuild:
    @pytest.mark.parametrize("allocator_cls",
                             [ChaitinAllocator, CallCostAllocator])
    def test_every_spill_round_value_identical(self, allocator_cls):
        machine = make_machine(8)
        module = prepare_module(small_stress_module(), machine)
        func = module.functions[0]
        rounds = 0
        for patched, fresh in drive_spill_rounds(
                func, machine, allocator_cls()):
            rounds += 1
            assert patched is not None, "patch bailed on a plain spill round"
            assert compare_analyses(patched, fresh) == []
        assert rounds >= 3, f"workload only forced {rounds} spill rounds"

    def test_patch_preserves_cfg_and_loops(self):
        machine = make_machine(8)
        module = prepare_module(small_stress_module(), machine)
        func = module.functions[0]
        renumber(func)
        analyses = compute_round_analyses(func, collect_deltas=True)
        ctx = RoundContext(
            func=func, machine=machine, cfg=analyses.cfg,
            loops=analyses.loops, liveness=analyses.liveness,
            ig=analyses.ig, spill_costs=analyses.spill_costs,
            round_index=0,
        )
        outcome = ChaitinAllocator().allocate_round(ctx)
        assert outcome.spilled
        report = insert_spill_code(func, outcome.spilled)
        ren = renumber(func, cfg=analyses.cfg)
        patched = analyses.apply_delta(func, report.delta, ren)
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
        # The validate harness recomputes every patched round from
        # scratch and raises on any divergence from the patch.
        machine = make_machine(8)
        prepared = prepare_module(small_stress_module(), machine)
        with validate_rounds():
            result = allocate_module(prepared, machine, ChaitinAllocator())
        assert result.stats.rounds >= 3


    def test_validate_harness_catches_corrupted_patch(self, monkeypatch):
        from oracles import OracleMismatch
        from repro.regalloc import base as regalloc_base

        real = regalloc_base.apply_spill_delta

        def corrupted(func, prev, delta, renumbering):
            patched = real(func, prev, delta, renumbering)
            if patched is not None and patched.spill_costs:
                victim = next(iter(patched.spill_costs))
                patched.spill_costs[victim] += 1.0
            return patched

        monkeypatch.setattr(regalloc_base, "apply_spill_delta", corrupted)
        machine = make_machine(8)
        prepared = prepare_module(small_stress_module(), machine)
        with validate_rounds():
            with pytest.raises(OracleMismatch, match="spill costs differ"):
                allocate_module(prepared, machine, ChaitinAllocator())


class TestFallbacks:
    def test_bails_without_collected_summaries(self):
        machine = make_machine(8)
        module = prepare_module(small_stress_module(), machine)
        func = module.functions[0]
        ren = renumber(func)
        prev = compute_round_analyses(func, collect_deltas=False)
        assert prev.block_rows is None
        patched = apply_spill_delta(func, prev, SpillDelta(), ren)
        assert patched is None


class TestWorkloadShape:
    def test_spillstress_localizes_touched_blocks(self):
        # The workload exists to exercise the incremental path: spills
        # must stay confined to the hot segments, not smear across the
        # whole function.
        machine = make_machine(8)
        module = prepare_module(spill_stress_module(n_functions=1), machine)
        func = module.functions[0]
        renumber(func)
        analyses = compute_round_analyses(func, collect_deltas=True)
        ctx = RoundContext(
            func=func, machine=machine, cfg=analyses.cfg,
            loops=analyses.loops, liveness=analyses.liveness,
            ig=analyses.ig, spill_costs=analyses.spill_costs,
            round_index=0,
        )
        outcome = ChaitinAllocator().allocate_round(ctx)
        assert outcome.spilled
        report = insert_spill_code(func, outcome.spilled)
        touched = len(report.delta.touched_blocks)
        assert 0 < touched < len(func.blocks) / 3
