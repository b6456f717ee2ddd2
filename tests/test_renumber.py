"""Renumbering into webs: splitting, preservation, statistics."""

import importlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import compare_renumber
from repro import pipeline
from repro.analysis.renumber import renumber
from repro.exec import alloctask, wire
from repro.ir.builder import IRBuilder
from repro.ir.clone import clone_function
from repro.ir.function import Module
from repro.ir.printer import print_function
from repro.ir.validate import validate_function
from repro.ir.values import Const, RegClass
from repro.sim.interp import run_function
from repro.sim.ops import Memory
from repro.pipeline import allocate_module, prepare_function, prepare_module
from repro.regalloc import (
    AllocationOptions,
    ChaitinAllocator,
    allocate_function,
    verify_allocation,
)
from repro.regalloc import base as regalloc_base
from repro.service.protocol import cycles_to_dict, stats_to_dict
from repro.service.scheduler import ALLOCATOR_FACTORIES
from repro.sim.cycles import estimate_cycles
from repro.ssa.construct import to_ssa
from repro.ssa.destruct import from_ssa
from repro.target.presets import (
    high_pressure,
    make_machine,
    middle_pressure,
)
from repro.workloads import (
    BENCHMARK_NAMES,
    make_benchmark,
    make_suite,
    spill_stress_module,
)
from repro.workloads.generator import generate_function

from conftest import build_counted_loop, build_diamond, build_straightline
from test_properties import profiles


def build_two_webs():
    """One variable with two disjoint def-use regions."""
    b = IRBuilder("twowebs", n_params=2)
    v = b.move(b.param(0))
    first = b.add(v, Const(1))          # last use of web 1
    b.move(b.param(1), dst=v)           # web 2 starts fresh
    second = b.add(v, Const(2))
    total = b.add(first, second)
    b.ret(total)
    return b.finish(), v


class TestWebSplitting:
    def test_disjoint_webs_split(self):
        func, v = build_two_webs()
        result = renumber(func)
        assert result.split_counts.get(v) == 2

    def test_split_preserves_semantics(self):
        func, _ = build_two_webs()
        before = clone_function(func)
        renumber(func)
        validate_function(func)
        args = [10, 20]
        ref = run_function(before, args, memory=Memory())
        got = run_function(func, args, memory=Memory())
        assert ref.value == got.value

    def test_loop_variable_is_one_web(self):
        func = build_counted_loop()
        # The counter's defs (init + increment) reach the same uses
        # around the back edge: one web.
        result = renumber(func)
        assert all(count == 1 for count in result.split_counts.values())

    def test_all_registers_renamed_fresh(self):
        func = build_diamond()
        old = func.vregs()
        renumber(func)
        assert not (func.vregs() & old)


class TestWebStatistics:
    def test_def_use_counts(self):
        func = build_straightline()
        result = renumber(func)
        by_reg = {w.reg: w for w in result.webs}
        for web in result.webs:
            assert web.n_defs >= 1 or web.reg in func.params
        # the move's destination web: one def, one use (the ret)
        assert any(w.n_defs == 1 and w.n_uses == 1 for w in result.webs)

    def test_no_spill_flag_propagates(self):
        b = IRBuilder("f", n_params=0)
        tmp = b.func.new_vreg(no_spill=True)
        b.const(1, dst=tmp)
        b.ret(tmp)
        func = b.finish()
        result = renumber(func)
        (web,) = [w for w in result.webs if w.original == tmp]
        assert web.reg.no_spill


class TestRejections:
    def test_phis_rejected(self):
        func = build_diamond()
        from repro.ssa.construct import to_ssa

        to_ssa(func)
        with pytest.raises(ValueError):
            renumber(func)


class TestInterplayWithSpills:
    def test_renumber_after_spill_keeps_semantics(self):
        from repro.regalloc.spill import insert_spill_code

        func = build_diamond()
        before = clone_function(func)
        target = next(
            v for v in func.vregs() if v not in func.params
        )
        insert_spill_code(func, {target})
        renumber(func)
        ref = run_function(before, [1, 2], memory=Memory())
        got = run_function(func, [1, 2], memory=Memory())
        assert ref.value == got.value


class TestAgainstReference:
    """The linear-time pass renames, counts and orders webs exactly like
    the quadratic reference in ``tests/oracles.py``."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_suite_prepared(self, name):
        machine = high_pressure()
        for func in make_suite([name])[name].functions:
            work = prepare_function(clone_function(func), machine)
            assert compare_renumber(work) == []

    def test_spill_stress(self):
        machine = make_machine(24)
        for func in spill_stress_module(1).functions:
            work = prepare_function(clone_function(func), machine)
            assert compare_renumber(work) == []

    def test_every_spill_round(self, monkeypatch):
        # Later rounds renumber spill-rewritten code: check each call.
        real = regalloc_base.renumber
        checked = []

        def checked_renumber(func, cfg=None):
            assert compare_renumber(func) == []
            checked.append(func.name)
            return real(func, cfg)

        monkeypatch.setattr(regalloc_base, "renumber", checked_renumber)
        machine = make_machine(8)
        func = make_suite(["javac"])["javac"].functions[0]
        work = prepare_function(clone_function(func), machine)
        result = allocate_function(work, machine, ChaitinAllocator())
        assert result.stats.rounds > 1
        assert len(checked) == result.stats.rounds

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_random_programs(self, profile, seed):
        work = generate_function("prop", profile, seed)
        to_ssa(work)
        from_ssa(work)
        assert compare_renumber(work) == []


@pytest.fixture(scope="module", params=["16", "24"])
def jess_prepared(request):
    """jess prepared for K=16 (every allocator spills) and K=24 (the
    model of the result pins)."""
    machine = {"16": high_pressure, "24": middle_pressure}[request.param]()
    return prepare_module(make_benchmark("jess", seed=0), machine), machine


#: the module itself (the package re-exports the function under its name)
renumber_mod = importlib.import_module("repro.analysis.renumber")


def _record(result, cycles) -> tuple:
    return (print_function(result.func), stats_to_dict(result.stats),
            cycles_to_dict(cycles))


class TestRenumberOnce:
    """A cold allocation renumbers each prepared function once, plus
    once per spill round: the serial path allocates a clone of its
    cached renumbered reference instead of renumbering the working
    clone again, and the pool task renumbers its private decoded copy
    inside ``allocate_function``.  Either way the result equals the
    oracle path, which renumbers a plain clone of the prepared function
    inside ``allocate_function``."""

    @pytest.fixture
    def renumbers(self, monkeypatch):
        """Names of the functions renumbered while the test runs."""
        calls = []
        real = renumber_mod.renumber

        def counting(func, cfg=None):
            calls.append(func.name)
            return real(func, cfg)

        for module in (renumber_mod, regalloc_base, pipeline):
            monkeypatch.setattr(module, "renumber", counting)
        return calls

    @pytest.mark.parametrize("name", sorted(ALLOCATOR_FACTORIES))
    def test_serial_and_pool_task_match_the_oracle(self, jess_prepared,
                                                   name, renumbers):
        prepared, machine = jess_prepared
        allocator = ALLOCATOR_FACTORIES[name]()
        options = AllocationOptions(verify=True, jobs=1)
        spilled = False
        for func in prepared.functions:
            work = clone_function(func)
            result = allocate_function(work, machine, allocator, options)
            verify_allocation(work, machine)
            want = _record(result, estimate_cycles(work, machine))
            spilled |= result.stats.rounds > 1

            # A fresh one-function module misses the round-0 cache.
            renumbers.clear()
            run = allocate_module(Module(func.name, [clone_function(func)]),
                                  machine, allocator, options)
            assert len(renumbers) == run.results[0].stats.rounds
            assert _record(run.results[0], run.cycles) == want

            renumbers.clear()
            got = alloctask.run_alloc_job(
                wire.pack_job((func, machine, allocator, options)))
            assert len(renumbers) == got[0].stats.rounds
            assert _record(*got) == want
        assert spilled or machine.k(RegClass.INT) == 24
