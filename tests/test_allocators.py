"""All allocator variants on shared fixtures: validity + semantics."""

import pytest

from repro.core import PreferenceConfig, PreferenceDirectedAllocator
from repro.ir.clone import clone_function
from repro.ir.values import VReg
from repro.pipeline import prepare_function
from repro.regalloc import (
    BriggsAllocator,
    CallCostAllocator,
    ChaitinAllocator,
    OptimisticCoalescingAllocator,
    allocate_function,
    verify_allocation,
)
from repro.sim.interp import run_function
from repro.sim.ops import Memory
from repro.target.presets import high_pressure, make_machine

from conftest import (
    build_call_heavy,
    build_counted_loop,
    build_diamond,
    build_paired_loads,
    build_straightline,
)

ALLOCATORS = [
    ChaitinAllocator,
    BriggsAllocator,
    OptimisticCoalescingAllocator,
    CallCostAllocator,
    lambda: PreferenceDirectedAllocator(PreferenceConfig.only_coalescing()),
    PreferenceDirectedAllocator,
]

FIXTURES = [
    (build_straightline, [3, 4]),
    (build_diamond, [1, 9]),
    (build_diamond, [9, 1]),
    (build_counted_loop, [6]),
    (build_call_heavy, [2, 5]),
    (build_paired_loads, [128]),
]


@pytest.mark.parametrize("make_alloc", ALLOCATORS,
                         ids=lambda a: a().name)
class TestEveryAllocator:
    def test_valid_and_semantics_preserved(self, make_alloc, machine16):
        for build, args in FIXTURES:
            func = prepare_function(build(), machine16)
            reference = run_function(
                clone_function(func), args, machine=machine16,
                memory=Memory(),
            )
            allocate_function(func, machine16, make_alloc())
            verify_allocation(func, machine16)
            got = run_function(func, args, machine=machine16,
                               memory=Memory())
            assert got.value == reference.value

    def test_no_virtual_registers_remain(self, make_alloc, machine24):
        func = prepare_function(build_call_heavy(), machine24)
        allocate_function(func, machine24, make_alloc())
        for _, instr in func.instructions():
            for reg in list(instr.defs()) + list(instr.used_regs()):
                assert not isinstance(reg, VReg)

    def test_tiny_register_file_forces_spills(self, make_alloc):
        machine = make_machine(4)
        from repro.ir.builder import IRBuilder

        b = IRBuilder("pressure", n_params=1)
        vals = [b.add(b.param(0), __import__(
            "repro.ir.values", fromlist=["Const"]).Const(i))
            for i in range(8)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.ret(acc)
        func = prepare_function(b.finish(), machine)
        reference = run_function(clone_function(func), [5],
                                 machine=machine, memory=Memory())
        result = allocate_function(func, machine, make_alloc())
        verify_allocation(func, machine)
        assert result.stats.spill_instructions > 0
        got = run_function(func, [5], machine=machine, memory=Memory())
        assert got.value == reference.value

    def test_stats_populated(self, make_alloc, machine16):
        func = prepare_function(build_call_heavy(), machine16)
        result = allocate_function(func, machine16, make_alloc())
        stats = result.stats
        assert stats.allocator == make_alloc().name
        assert stats.rounds >= 1
        assert stats.moves_before >= stats.moves_eliminated >= 0
        assert stats.moves_before == sum(stats.moves_before_class.values())


class TestAllocatorDifferences:
    def test_chaitin_pessimistic_briggs_optimistic(self, machine16):
        # On colorable code they agree; the structural difference shows
        # in rounds on pressure (Chaitin restarts before select).
        machine = make_machine(4)
        from repro.ir.builder import IRBuilder
        from repro.ir.values import Const

        b = IRBuilder("p", n_params=1)
        vals = [b.add(b.param(0), Const(i)) for i in range(6)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.ret(acc)
        func = b.finish()
        f1 = prepare_function(clone_function(func), machine)
        f2 = prepare_function(clone_function(func), machine)
        r_chaitin = allocate_function(f1, machine, ChaitinAllocator())
        r_briggs = allocate_function(f2, machine, BriggsAllocator())
        assert r_briggs.stats.spill_instructions <= \
            r_chaitin.stats.spill_instructions

    def test_callcost_uses_fewer_caller_saves(self, machine16):
        from repro.sim.cycles import estimate_cycles

        func0 = prepare_function(build_call_heavy(), machine16)
        f1, f2 = clone_function(func0), clone_function(func0)
        allocate_function(
            f1, machine16, ChaitinAllocator(color_policy="volatile_first")
        )
        allocate_function(f2, machine16, CallCostAllocator())
        saves1 = estimate_cycles(f1, machine16).caller_save_cycles
        saves2 = estimate_cycles(f2, machine16).caller_save_cycles
        assert saves2 <= saves1

    def test_optimistic_coalescing_never_worse_spills_than_chaitin(self):
        machine = make_machine(4)
        from repro.ir.builder import IRBuilder
        from repro.ir.values import Const

        b = IRBuilder("p", n_params=1)
        copies = [b.move(b.param(0)) for _ in range(3)]
        vals = [b.add(c, Const(i)) for i, c in enumerate(copies * 2)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.ret(acc)
        func = b.finish()
        f1 = prepare_function(clone_function(func), machine)
        f2 = prepare_function(clone_function(func), machine)
        r1 = allocate_function(f1, machine, ChaitinAllocator())
        r2 = allocate_function(f2, machine,
                               OptimisticCoalescingAllocator())
        assert r2.stats.spill_instructions <= r1.stats.spill_instructions
