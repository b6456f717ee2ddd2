"""Mechanism-level tests for the baseline allocators: the Park–Moon undo,
the Lueh–Gross preference decision and active spilling, and the shared
driver's corner cases."""

import pytest

from repro.core import PreferenceDirectedAllocator
from repro.errors import AllocationError
from repro.ir.builder import IRBuilder
from repro.ir.clone import clone_function
from repro.ir.values import Const
from repro.pipeline import prepare_function
from repro.regalloc import (
    AllocationOptions,
    Allocator,
    BriggsAllocator,
    CallCostAllocator,
    ChaitinAllocator,
    OptimisticCoalescingAllocator,
    RoundOutcome,
    allocate_function,
    verify_allocation,
)
from repro.sim.cycles import estimate_cycles
from repro.sim.interp import run_function
from repro.sim.ops import Memory
from repro.target.presets import make_machine


def pressure_with_copies(n_copies=4, n_noise=6):
    """Copy-related values inside a high-pressure region: the coalesced
    node becomes uncolorable, exercising Park–Moon's undo."""
    b = IRBuilder("p", n_params=1)
    chain = [b.move(b.param(0))]
    for _ in range(n_copies - 1):
        chain.append(b.move(chain[-1]))
    noise = [b.add(b.param(0), Const(i)) for i in range(n_noise)]
    acc = chain[0]
    for v in chain[1:] + noise:
        acc = b.add(acc, v)
    b.ret(acc)
    return b.finish()


class TestParkMoonUndo:
    def test_undo_splits_rather_than_spills_everything(self):
        machine = make_machine(4)
        base = prepare_function(pressure_with_copies(), machine)
        f1, f2 = clone_function(base), clone_function(base)
        chaitin = allocate_function(f1, machine, ChaitinAllocator())
        pm = allocate_function(f2, machine, OptimisticCoalescingAllocator())
        verify_allocation(f2, machine)
        assert pm.stats.spill_instructions <= chaitin.stats.spill_instructions

    def test_semantics_after_undo(self):
        machine = make_machine(4)
        raw = pressure_with_copies()
        want = run_function(clone_function(raw), [10],
                            memory=Memory()).value
        func = prepare_function(raw, machine)
        allocate_function(func, machine, OptimisticCoalescingAllocator())
        got = run_function(func, [10], machine=machine,
                           memory=Memory()).value
        assert got == want


class TestCallCostMechanisms:
    def build_many_crossers(self, n_values):
        b = IRBuilder("f", n_params=1)
        values = [b.add(b.param(0), Const(i)) for i in range(n_values)]
        for _ in range(3):
            b.call("helper", [b.param(0)])
        acc = values[0]
        for v in values[1:]:
            acc = b.add(acc, v)
        b.ret(acc)
        return b.finish()

    def test_preference_decision_caps_nonvolatile_claims(self):
        # More crossing values than non-volatile registers: the decision
        # must push the excess to volatile registers or memory without
        # failing.
        machine = make_machine(6)   # 3 nonvolatile
        func = prepare_function(self.build_many_crossers(8), machine)
        result = allocate_function(func, machine, CallCostAllocator())
        verify_allocation(func, machine)
        report = estimate_cycles(func, machine)
        assert report.callee_save_cycles <= 2 * 3  # at most 3 nonvol regs

    def test_active_spill_prefers_memory(self):
        # A dead-cheap value crossing three calls has benefit < 0 when
        # no non-volatile register is free.
        machine = make_machine(4)
        func = prepare_function(self.build_many_crossers(6), machine)
        result = allocate_function(func, machine, CallCostAllocator())
        verify_allocation(func, machine)
        # consistency: allocation completed within the round budget
        assert result.stats.rounds < 10


class TestDriver:
    def test_round_limit_raises(self):
        class NeverDone(Allocator):
            name = "never-done"

            def allocate_round(self, ctx):
                outcome = RoundOutcome()
                # nominate a fresh web every round: no fixed point
                for v in ctx.ig.vregs():
                    if not v.no_spill:
                        outcome.spilled.add(v)
                        return outcome
                outcome.assignment = {}
                return outcome

        machine = make_machine(8)
        func = prepare_function(pressure_with_copies(), machine)
        with pytest.raises(AllocationError, match="fixed point"):
            allocate_function(func, machine, NeverDone(),
                              AllocationOptions(max_rounds=3))

    def test_stats_rounds_counts_spill_iterations(self):
        machine = make_machine(4)
        func = prepare_function(pressure_with_copies(), machine)
        result = allocate_function(func, machine, BriggsAllocator())
        if result.stats.spill_instructions:
            assert result.stats.rounds >= 2

    def test_weighted_metrics_scale_with_loops(self):
        b = IRBuilder("f", n_params=1)
        t = b.move(b.param(0))
        b.jump("head")
        b.block("head")
        u = b.move(t)
        v = b.add(u, Const(1))
        cond = b.binop("cmplt", v, b.param(0))
        b.branch(cond, "head", "exit")
        b.block("exit")
        b.ret(v)
        machine = make_machine(8)
        func = prepare_function(b.finish(), machine)
        result = allocate_function(func, machine,
                                   PreferenceDirectedAllocator())
        stats = result.stats
        # loop-resident moves weigh 10x
        assert stats.moves_before_weighted > stats.moves_before

    def test_outcome_resolve_detects_alias_cycles(self):
        from repro.ir.values import VReg

        outcome = RoundOutcome()
        a, b_ = VReg(1), VReg(2)
        outcome.alias = {a: b_, b_: a}
        with pytest.raises(AllocationError, match="cycle"):
            outcome.resolve(a)

    def test_outcome_resolve_missing_color(self):
        from repro.ir.values import VReg

        with pytest.raises(AllocationError, match="no color"):
            RoundOutcome().resolve(VReg(1))
