"""All allocator variants on shared fixtures: validity + semantics."""

import pytest

from repro.core import PreferenceConfig, PreferenceDirectedAllocator
from repro.ir.clone import clone_function
from repro.ir.printer import print_module
from repro.ir.values import VReg
from repro.pipeline import allocate_module, prepare_function, prepare_module
from repro.regalloc import (
    AllocationOptions,
    BriggsAllocator,
    CallCostAllocator,
    ChaitinAllocator,
    OptimisticCoalescingAllocator,
    allocate_function,
    verify_allocation,
)
from repro.service.cache import request_fingerprint
from repro.service.scheduler import ALLOCATOR_FACTORIES
from repro.sim.interp import run_function
from repro.sim.ops import Memory
from repro.target.presets import make_machine, middle_pressure
from repro.workloads.suite import make_benchmark

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


# ---------------------------------------------------------------------------
# Result and fingerprint pins: any drift in the appendix cost constants,
# the spill metric, the selector key or round behavior moves these.
# ---------------------------------------------------------------------------

AXPY_IR = """func axpy(%p0, %p1) -> value {
entry:
  %a = mul %p0, 2
  %b = add %a, %p1
  ret %b
}
"""

#: request_fingerprint pins under the default options.  These are the
#: cache keys of deployed traffic: moving one orphans its cache entries.
PINNED_FINGERPRINTS = {
    # (ir-producer, allocator, regs) -> hex digest
    "axpy/full/m8":
        "75eea572d9dab2406e3df6feed5b4f8288b62fc8478649ba6388f758effc1375",
    "spillstress/full/m12":
        "0ce86c091fdf45487a2951d368461f4f61e9ca2a0c007dcb24f867e2be7329f5",
    "jess/full/m12":
        "3ec79ea41d3ad27c31d8aadf74ba23074cb55a7382bcdade4c063fd8426aaa6d",
}

#: (moves_eliminated, spill_loads + spill_stores, spilled_webs,
#:  cycles.total, rounds) on spillstress(seed=0) at K=12, per allocator.
PINNED_SPILLSTRESS_STATS = {
    "full": (152, 408, 204, 56448.0, 4),
    "chaitin": (296, 408, 204, 59008.0, 4),
    "briggs": (296, 408, 204, 59008.0, 4),
    "callcost": (296, 408, 204, 59008.0, 4),
}

#: The same 5-tuple on jess at the 24-register model
#: (``middle_pressure()``), for every served allocator.
PINNED_JESS_M24_STATS = {
    "chaitin": (458, 0, 0, 4527.0, 1),
    "briggs": (458, 0, 0, 4527.0, 1),
    "optimistic": (458, 0, 0, 4527.0, 1),
    "callcost": (459, 6, 3, 3823.0, 2),
    "only-coalescing": (427, 0, 0, 4115.0, 1),
    "full": (388, 5, 2, 3853.0, 2),
}


def result_pin(result) -> tuple:
    stats = result.stats
    return (stats.moves_eliminated,
            stats.spill_loads + stats.spill_stores,
            stats.spilled_webs,
            result.cycles.total,
            stats.rounds)


@pytest.fixture(scope="module")
def spillstress_m12():
    machine = make_machine(12)
    module = make_benchmark("spillstress", seed=0)
    return prepare_module(module, machine), machine


@pytest.fixture(scope="module")
def jess_m24():
    machine = middle_pressure()
    return prepare_module(make_benchmark("jess", seed=0), machine), machine


class TestFingerprintPins:
    def test_axpy_pin(self):
        fp = request_fingerprint(AXPY_IR, make_machine(8), "full",
                                 options=AllocationOptions())
        assert fp == PINNED_FINGERPRINTS["axpy/full/m8"]

    def test_spillstress_pin(self, spillstress_m12):
        prepared, machine = spillstress_m12
        fp = request_fingerprint(print_module(prepared), machine, "full",
                                 options=AllocationOptions())
        assert fp == PINNED_FINGERPRINTS["spillstress/full/m12"]

    def test_jess_pin(self):
        machine = make_machine(12)
        prepared = prepare_module(make_benchmark("jess", seed=0), machine)
        fp = request_fingerprint(print_module(prepared), machine, "full",
                                 options=AllocationOptions())
        assert fp == PINNED_FINGERPRINTS["jess/full/m12"]


class TestResultPins:
    @pytest.mark.parametrize("name", sorted(PINNED_SPILLSTRESS_STATS))
    def test_spillstress_stats_pin(self, spillstress_m12, name):
        prepared, machine = spillstress_m12
        result = allocate_module(prepared, machine,
                                 ALLOCATOR_FACTORIES[name]())
        assert result_pin(result) == PINNED_SPILLSTRESS_STATS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_JESS_M24_STATS))
    def test_jess_m24_stats_pin(self, jess_m24, name):
        prepared, machine = jess_m24
        result = allocate_module(prepared, machine,
                                 ALLOCATOR_FACTORIES[name]())
        assert result_pin(result) == PINNED_JESS_M24_STATS[name]
