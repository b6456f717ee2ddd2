"""Bitset dataflow kernels vs. their set-based references.

The liveness and interference builders run over dense integer bitmasks
(:mod:`repro.analysis.indexing`, :mod:`repro.analysis.matrix`); the
original set formulations are the ``*_reference`` oracles in
``tests/oracles.py``.  These properties pin the two
implementations together set-for-set on randomly generated CFGs, check
the :class:`~repro.regalloc.igraph.AllocGraph` incremental-degree
bookkeeping against a recount, and assert the pipeline's throughput
levers (round-0 analysis caching, ``jobs=N`` fan-out) change nothing
about the produced allocations.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import (
    build_interference_reference,
    compute_liveness_reference,
    instruction_liveness_reference,
)
from repro.analysis.interference import build_interference
from repro.analysis.liveness import compute_liveness, instruction_liveness
from repro.cfg.analysis import build_cfg
from repro.core import PreferenceDirectedAllocator
from repro.ir.clone import clone_function
from repro.ir.values import PReg, VReg
from repro.pipeline import allocate_module, prepare_function, prepare_module
from repro.regalloc import AllocationOptions
from repro.regalloc.igraph import build_alloc_graph
from repro.target.presets import make_machine
from repro.workloads.generator import generate_function, generate_module
from repro.workloads.profiles import BenchmarkProfile

SLOW = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

profiles = st.builds(
    BenchmarkProfile,
    name=st.just("bitset"),
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
    max_params=st.integers(1, 2),
    max_call_args=st.integers(1, 2),
)


def _prepared(profile, seed, k=8):
    machine = make_machine(k)
    func = prepare_function(generate_function("bitset", profile, seed),
                            machine)
    return func, machine


class TestLivenessEquivalence:
    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_block_liveness_matches_reference(self, profile, seed):
        func, _ = _prepared(profile, seed)
        cfg = build_cfg(func)
        fast = compute_liveness(func, cfg)
        ref = compute_liveness_reference(func, cfg)
        for label in func.block_map():
            assert fast.live_in[label] == ref.live_in[label]
            assert fast.live_out[label] == ref.live_out[label]
            assert fast.use[label] == ref.use[label]
            assert fast.defs[label] == ref.defs[label]
        # The mask twins decode to exactly the same sets.
        for label in func.block_map():
            assert fast.index.set_of(fast.live_in_mask[label]) \
                == fast.live_in[label]
            assert fast.index.set_of(fast.live_out_mask[label]) \
                == fast.live_out[label]

    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_instruction_liveness_matches_reference(self, profile, seed):
        func, _ = _prepared(profile, seed)
        fast = instruction_liveness(func, compute_liveness(func))
        slow = instruction_liveness_reference(
            func, compute_liveness_reference(func))
        assert fast.keys() == slow.keys()
        for key in fast:
            assert fast[key] == slow[key]


class TestInterferenceEquivalence:
    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_adjacency_and_moves_match_reference(self, profile, seed):
        func, _ = _prepared(profile, seed)
        fast = build_interference(func)
        ref = build_interference_reference(func)
        assert set(fast.adjacency) == set(ref.adjacency)
        for node in ref.adjacency:
            assert fast.adjacency[node] == ref.adjacency[node], node
        assert [(m.dst, m.src) for m in fast.moves] \
            == [(m.dst, m.src) for m in ref.moves]


class TestIncrementalDegrees:
    def _check_degrees(self, graph):
        for node in graph.active:
            assert graph._degree[node] == len(graph.neighbors(node)), node

    def test_degree_tracks_recount_under_mutation(self):
        """merge/remove/add_edge keep ``_degree`` equal to a recount."""
        # K=4 machines only have two parameter registers.
        profile = BenchmarkProfile(name="bitset", stmts=16, int_pool=8,
                                   max_params=2, max_call_args=2)
        for seed in range(12):
            func, machine = _prepared(profile, seed, k=4)
            ig = build_interference(func)
            for rclass in {v.rclass for v in ig.vregs()}:
                graph = build_alloc_graph(ig, machine, rclass)
                rng = random.Random(seed)
                self._check_degrees(graph)
                for _ in range(40):
                    if not graph.active:
                        break
                    roll = rng.random()
                    nodes = sorted(graph.active, key=lambda v: v.id)
                    a = rng.choice(nodes)
                    if roll < 0.3:
                        graph.remove(a)
                    elif roll < 0.6 and len(nodes) > 1:
                        b = rng.choice([n for n in nodes if n != a])
                        if not graph.interferes(a, b):
                            graph.merge(a, b)
                    elif roll < 0.8:
                        kept = rng.choice(
                            [p for p in graph.colors
                             if not graph.interferes(p, a)] or [None]
                        )
                        if kept is not None:
                            graph.merge(kept, a)
                    else:
                        b = rng.choice(nodes)
                        graph.add_edge(a, b)
                    self._check_degrees(graph)


class TestPipelineLevers:
    def _fingerprint(self, allocation):
        stats = allocation.stats
        return (
            stats.moves_eliminated,
            stats.spill_loads,
            stats.spill_stores,
            stats.spilled_webs,
            allocation.cycles.total,
            tuple(
                (res.func.name,
                 tuple(sorted((v.id, v.name, p.index)
                              for v, p in res.assignment.items())))
                for res in allocation.results
            ),
        )

    def test_cache_and_jobs_do_not_change_allocations(self):
        profile = BenchmarkProfile(name="bitset", n_functions=4, stmts=18,
                                   int_pool=8, float_pool=2)
        machine = make_machine(8)
        prepared = prepare_module(generate_module(profile, seed=7), machine)
        allocator = PreferenceDirectedAllocator()
        want = self._fingerprint(
            allocate_module(prepared, machine, allocator,
                            AllocationOptions(reuse_analyses=False))
        )
        cold = self._fingerprint(
            allocate_module(prepared, machine, allocator)
        )
        warm = self._fingerprint(
            allocate_module(prepared, machine, allocator)
        )
        fanned = self._fingerprint(
            allocate_module(prepared, machine, allocator,
                            AllocationOptions(jobs=2))
        )
        assert cold == want
        assert warm == want
        assert fanned == want

    def test_repeated_runs_are_deterministic(self):
        profile = BenchmarkProfile(name="bitset", n_functions=2, stmts=14,
                                   int_pool=6)
        machine = make_machine(8)
        prepared = prepare_module(generate_module(profile, seed=3), machine)
        runs = {
            self._fingerprint(
                allocate_module(prepared, machine,
                                PreferenceDirectedAllocator())
            ): None
            for _ in range(3)
        }
        assert len(runs) == 1


def test_colored_nodes_are_registers_smoke():
    """Every assignment maps a vreg to a physical register of its class."""
    profile = BenchmarkProfile(name="bitset", n_functions=2, stmts=14,
                               int_pool=6, float_pool=2)
    machine = make_machine(8)
    prepared = prepare_module(generate_module(profile, seed=11), machine)
    allocation = allocate_module(prepared, machine,
                                 PreferenceDirectedAllocator())
    for result in allocation.results:
        for vreg, preg in result.assignment.items():
            assert isinstance(vreg, VReg)
            assert isinstance(preg, PReg)
            assert vreg.rclass is preg.rclass
