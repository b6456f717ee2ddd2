"""Property-based tests (hypothesis) over randomly generated programs.

The generator is driven through seeds and downsized profiles so each
example stays small; the properties are the load-bearing invariants:

* the full pipeline + every allocator preserves program semantics,
* allocations are structurally valid (verifier),
* the CPG's partial order certifies colorability for any topological
  order (the paper's Section 5.2 claim),
* renumbering and SSA round-trips preserve semantics.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cpg_queries import preds_of, topological_orders_exist

from repro.analysis.interference import build_interference
from repro.errors import AllocationError
from repro.analysis.renumber import renumber
from repro.core import PreferenceConfig, PreferenceDirectedAllocator
from repro.core.cpg import BOTTOM, TOP, build_cpg
from repro.ir.clone import clone_function
from repro.ir.validate import validate_function
from repro.ir.values import PReg, VReg
from repro.pipeline import prepare_function
from repro.regalloc import (
    AllocationOptions,
    BriggsAllocator,
    CallCostAllocator,
    ChaitinAllocator,
    OptimisticCoalescingAllocator,
    allocate_function,
    verify_allocation,
)
from repro.regalloc.igraph import build_alloc_graph
from repro.regalloc.simplify import simplify
from repro.sim.interp import run_function
from repro.sim.ops import Memory
from repro.ssa.construct import to_ssa
from repro.ssa.destruct import from_ssa
from repro.target.presets import make_machine
from repro.workloads.generator import generate_function
from repro.workloads.profiles import BenchmarkProfile

SLOW = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

profiles = st.builds(
    BenchmarkProfile,
    name=st.just("prop"),
    stmts=st.integers(4, 14),
    int_pool=st.integers(3, 8),
    float_pool=st.integers(0, 3),
    call_prob=st.floats(0.0, 0.3),
    branch_prob=st.floats(0.0, 0.3),
    loop_prob=st.floats(0.0, 0.25),
    max_loop_depth=st.integers(1, 2),
    copy_prob=st.floats(0.0, 0.3),
    paired_prob=st.floats(0.0, 0.5),
    byte_prob=st.floats(0.0, 0.4),
    load_prob=st.floats(0.0, 0.3),
    store_prob=st.floats(0.0, 0.15),
    # K=4 machines only have two parameter registers
    max_params=st.integers(1, 2),
    max_call_args=st.integers(1, 2),
)

ALLOCATOR_FACTORIES = [
    ChaitinAllocator,
    BriggsAllocator,
    OptimisticCoalescingAllocator,
    CallCostAllocator,
    lambda: PreferenceDirectedAllocator(PreferenceConfig.only_coalescing()),
    PreferenceDirectedAllocator,
]


def random_args(func, seed):
    rng = random.Random(seed)
    return [rng.randrange(16, 512, 4) for _ in func.params]


class TestSemanticPreservation:
    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000),
           alloc_index=st.integers(0, len(ALLOCATOR_FACTORIES) - 1),
           k=st.sampled_from([4, 8, 16]))
    def test_alloc_preserves_semantics(self, profile, seed, alloc_index, k):
        func = generate_function("prop", profile, seed)
        validate_function(func)
        machine = make_machine(k)
        prepared = prepare_function(clone_function(func), machine)
        args = random_args(func, seed)
        want = run_function(func, args, machine=machine, memory=Memory())
        try:
            allocate_function(prepared, machine,
                              ALLOCATOR_FACTORIES[alloc_index]())
        except AllocationError as err:
            # Spill-everywhere allocation has no live-range splitting:
            # a generated program whose peak single-instruction operand
            # pressure (no-spill reload/store temporaries) exceeds a
            # tiny k is genuinely unallocatable by this family, not a
            # semantics bug.  Reject the example; any other allocation
            # failure still fails the test.
            if "pressure cannot be met" in str(err):
                assume(False)
            raise
        verify_allocation(prepared, machine)
        got = run_function(prepared, args, machine=machine,
                           memory=Memory())
        assert got.value == want.value

    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_ssa_roundtrip(self, profile, seed):
        func = generate_function("prop", profile, seed)
        args = random_args(func, seed)
        want = run_function(func, args, memory=Memory())
        work = clone_function(func)
        to_ssa(work)
        validate_function(work, ssa=True)
        from_ssa(work)
        validate_function(work)
        got = run_function(work, args, memory=Memory())
        assert got.value == want.value

    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_renumber_preserves_semantics(self, profile, seed):
        func = generate_function("prop", profile, seed)
        args = random_args(func, seed)
        want = run_function(func, args, memory=Memory())
        work = clone_function(func)
        to_ssa(work)
        from_ssa(work)
        renumber(work)
        validate_function(work)
        got = run_function(work, args, memory=Memory())
        assert got.value == want.value


class TestCPGColorability:
    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000),
           order_seed=st.integers(0, 1_000), k=st.sampled_from([4, 6, 8]))
    def test_any_topological_order_colors(self, profile, seed,
                                          order_seed, k):
        machine = make_machine(k)
        func = prepare_function(
            generate_function("prop", profile, seed), machine
        )
        renumber(func)
        from repro.ir.values import RegClass

        ig = build_interference(func)
        graph = build_alloc_graph(ig, machine, RegClass.INT)
        wig = graph.active
        simpl = simplify(graph, optimistic=True)
        cpg = build_cpg(graph, wig, simpl)
        assert topological_orders_exist(cpg)

        rng = random.Random(order_seed)
        succs = cpg.succs
        indeg = {n: len(p) for n, p in preds_of(cpg).items()}
        frontier = [n for n, d in indeg.items()
                    if d == 0 and n != BOTTOM]
        assignment: dict[VReg, PReg] = {}
        while frontier:
            node = rng.choice(frontier)
            frontier.remove(node)
            for succ in succs.get(node, ()):
                indeg[succ] -= 1
                if indeg[succ] == 0 and succ != BOTTOM:
                    frontier.append(succ)
            if node == TOP or not isinstance(node, VReg):
                continue
            forbidden = set()
            for n in graph.all_neighbors(node):
                if isinstance(n, PReg):
                    forbidden.add(n)
                elif n in assignment:
                    forbidden.add(assignment[n])
            free = [c for c in graph.colors if c not in forbidden]
            if node in simpl.optimistic:
                if free:
                    assignment[node] = free[0]
                continue
            assert free, "CPG colorability guarantee violated"
            assignment[node] = free[0]


class TestStructuralInvariants:
    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_interference_is_symmetric_and_irreflexive(self, profile, seed):
        machine = make_machine(8)
        func = prepare_function(
            generate_function("prop", profile, seed), machine
        )
        ig = build_interference(func)
        for node in ig.nodes():
            assert node not in ig.neighbors(node)
            for n in ig.neighbors(node):
                assert node in ig.neighbors(n)
                assert n.rclass is node.rclass

    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_interpreter_deterministic(self, profile, seed):
        func = generate_function("prop", profile, seed)
        args = random_args(func, seed)
        a = run_function(clone_function(func), args, memory=Memory())
        b = run_function(clone_function(func), args, memory=Memory())
        assert a.value == b.value and a.steps == b.steps


class TestSelectIndexEquivalence:
    """The indexed decision engines replay the scan oracles in
    ``tests/oracles.py`` decision-for-decision — per-round simplify
    stacks (including spill picks), the selector's full pick/color
    trace, and the final assignment are identical whether the scan
    oracles run, the production engines run, or the production engines
    run under the pick-by-pick validate harness."""

    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000),
           k=st.sampled_from([4, 8, 16]))
    def test_decision_sequence_identical(self, profile, seed, k):
        from contextlib import nullcontext

        from oracles import scan_select, validate_select
        from repro.core import allocator as allocator_mod

        func = generate_function("prop", profile, seed)
        machine = make_machine(k)
        real_simplify = allocator_mod.simplify
        runs = {}
        try:
            for mode, engines in (("scan", scan_select),
                                  ("indexed", nullcontext),
                                  ("validate", validate_select)):
                stacks = []

                def recording(graph, optimistic=True):
                    res = real_simplify(graph, optimistic)
                    stacks.append((list(res.stack), set(res.optimistic),
                                   set(res.spilled)))
                    return res

                allocator_mod.simplify = recording
                alloc = PreferenceDirectedAllocator(keep_trace=True)
                prepared = prepare_function(clone_function(func), machine)
                try:
                    with engines():
                        result = allocate_function(
                            prepared, machine, alloc,
                            options=AllocationOptions())
                except AllocationError as err:
                    # Unallocatable pressure must reproduce identically
                    # across engines; any other failure is a real bug.
                    if "pressure cannot be met" not in str(err):
                        raise
                    runs[mode] = ("pressure-error", stacks)
                    continue
                finally:
                    allocator_mod.simplify = real_simplify
                runs[mode] = (
                    stacks,
                    list(alloc.last_trace.steps),
                    sorted((v.id, str(p))
                           for v, p in result.assignment.items()),
                    (result.stats.moves_eliminated,
                     result.stats.spill_loads,
                     result.stats.spill_stores,
                     result.stats.spilled_webs,
                     result.stats.rounds),
                )
        finally:
            allocator_mod.simplify = real_simplify
        assert runs["scan"] == runs["indexed"]
        assert runs["indexed"] == runs["validate"]
