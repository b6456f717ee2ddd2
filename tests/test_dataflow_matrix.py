"""The int-bitmask dataflow kernels vs the oracles.

Liveness, interference and the CPG replay each have one production
path (:mod:`repro.analysis.matrix`, :mod:`repro.core.cpg`).  These
tests pin them to the oracles in ``tests/oracles.py`` — the set-based
liveness and interference references and the plain CPG replay — on
random programs, prove the validate harness detects an injected
divergence in each of the three kernels, check whole allocations are
identical under the harness, and check a full allocation runs on the
standard library alone (numpy is never imported).
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import ExitStack, contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import (
    OracleMismatch,
    build_cpg_int,
    build_interference_reference,
    compare_cpgs,
    compare_interference,
    compare_liveness,
    compute_liveness_reference,
    scan_block_rows,
    validate_dataflow,
    validate_rounds,
)
from repro.analysis import matrix
from repro.analysis.interference import build_interference
from repro.analysis.liveness import compute_liveness
from repro.cfg.analysis import build_cfg
from repro.core import PreferenceDirectedAllocator
from repro.core import cpg as cpg_mod
from repro.errors import AllocationError
from repro.ir.clone import clone_function
from repro.pipeline import prepare_function
from repro.regalloc import ChaitinAllocator, allocate_function
from repro.regalloc.igraph import build_alloc_graph
from repro.sim.cycles import estimate_cycles
from repro.target.presets import make_machine
from repro.workloads.generator import generate_function
from repro.workloads.profiles import BenchmarkProfile

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

profiles = st.builds(
    BenchmarkProfile,
    name=st.just("matrix"),
    stmts=st.integers(4, 16),
    int_pool=st.integers(3, 8),
    float_pool=st.integers(0, 3),
    call_prob=st.floats(0.0, 0.3),
    branch_prob=st.floats(0.0, 0.3),
    loop_prob=st.floats(0.0, 0.25),
    max_loop_depth=st.integers(1, 2),
    copy_prob=st.floats(0.0, 0.3),
    load_prob=st.floats(0.0, 0.3),
    store_prob=st.floats(0.0, 0.15),
    max_params=st.integers(1, 2),
    max_call_args=st.integers(1, 2),
)


def _prepared(profile, seed, k=8):
    machine = make_machine(k)
    func = prepare_function(generate_function("matrix", profile, seed),
                            machine)
    return func, machine


def _assert_liveness_matches_reference(func):
    cfg = build_cfg(func)
    fast = compute_liveness(func, cfg)
    assert compare_liveness(fast, compute_liveness_reference(func, cfg)) \
        == []


class TestLivenessBackends:
    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_masks_and_lazy_sets_match_reference(self, profile, seed):
        func, _ = _prepared(profile, seed)
        _assert_liveness_matches_reference(func)


class TestInterferenceBackends:
    @SLOW
    @given(profile=profiles, seed=st.integers(0, 10_000))
    def test_rows_moves_and_block_rows_match_reference(self, profile,
                                                       seed):
        func, _ = _prepared(profile, seed)
        fast = build_interference(func)
        assert compare_interference(
            fast, build_interference_reference(func)) == []
        # The packed scan yields, block by block, the one-sided rows
        # and move order of the scalar per-instruction reference scan.
        liveness = compute_liveness(func)
        pack = liveness.pack
        row_and = pack.def_and_masks()
        for blk in func.blocks:
            live_out = liveness.live_out_mask[blk.label]
            want: dict[int, int] = {}
            want_moves: list = []
            scan_block_rows(blk, liveness.index, live_out, want,
                            want_moves)
            got = [0] * len(liveness.index)
            got_moves: list = []
            matrix.scan_packed_block(pack.block_entries[blk.label],
                                     live_out, got, got_moves, row_and)
            assert {i: r for i, r in enumerate(got) if r} \
                == {i: r for i, r in want.items() if r}, blk.label
            assert got_moves == want_moves, blk.label
        # Lazy materialization inserts nodes in dense-id order.
        assert list(fast.adjacency) == list(fast.index.regs)


class TestCPGBackends:
    def _graph_inputs(self, func, machine):
        from repro.regalloc.simplify import simplify

        ig = build_interference(func)
        rclasses = {v.rclass for v in ig.vregs()}
        out = []
        for rclass in rclasses:
            graph = build_alloc_graph(ig, machine, rclass)
            wig = graph.snapshot_active_adjacency()
            simp = simplify(graph, optimistic=True)
            out.append((graph, wig, simp))
        return out

    def test_wig_rows_fast_path_matches_dict_encode(self):
        profile = BenchmarkProfile(name="matrix", stmts=20, int_pool=8,
                                   float_pool=2, max_params=2,
                                   max_call_args=2)
        checked = 0
        for seed in range(8):
            func, machine = _prepared(profile, seed)
            for graph, wig, _ in self._graph_inputs(func, machine):
                if not cpg_mod._wig_rows_usable(graph, wig):
                    continue
                checked += 1
                assert cpg_mod._wig_rows_gathered(graph, wig) \
                    == cpg_mod._wig_rows(graph, wig)
        assert checked, "fast path never engaged"

    def test_adjacency_mutation_disables_fast_path(self):
        profile = BenchmarkProfile(name="matrix", stmts=20, int_pool=8,
                                   max_params=2, max_call_args=2)
        func, machine = _prepared(profile, 1)
        (graph, wig, _), *_ = self._graph_inputs(func, machine)
        assert cpg_mod._wig_rows_usable(graph, wig)
        nodes = sorted(wig, key=lambda v: v.id)
        pair = [(a, b) for a in nodes for b in nodes
                if a is not b and b not in graph.adj[a]]
        if not pair:
            pytest.skip("complete graph; nothing to add")
        graph.add_edge(*pair[0])
        assert not cpg_mod._wig_rows_usable(graph, wig)

    def test_closure_matches_int(self):
        profile = BenchmarkProfile(name="matrix", stmts=24, int_pool=8,
                                   branch_prob=0.2, loop_prob=0.2,
                                   max_params=2, max_call_args=2)
        for seed in range(6):
            func, machine = _prepared(profile, seed)
            for graph, wig, simp in self._graph_inputs(func, machine):
                want = build_cpg_int(graph, wig, simp)
                assert compare_cpgs(cpg_mod.build_cpg(graph, wig, simp),
                                    want) == []


class TestValidateDetectsDivergence:
    """The validate harness raises on the first injected divergence."""

    def _func(self):
        profile = BenchmarkProfile(name="matrix", stmts=12, int_pool=6,
                                   max_params=2, max_call_args=2)
        return _prepared(profile, 3)

    def _allocate(self, func, machine):
        with validate_dataflow():
            allocate_function(clone_function(func), machine,
                              PreferenceDirectedAllocator())

    def test_honest_kernels_pass(self):
        self._allocate(*self._func())

    def test_corrupted_liveness_mask(self, monkeypatch):
        func, machine = self._func()
        real = matrix.solve_liveness

        def corrupted(pack, cfg):
            live_in, live_out = real(pack, cfg)
            label = next(iter(live_out))
            live_out[label] ^= 1  # flip one register's liveness
            return live_in, live_out

        monkeypatch.setattr(matrix, "solve_liveness", corrupted)
        with pytest.raises(OracleMismatch, match="liveness"):
            self._allocate(func, machine)

    def test_corrupted_interference_matrix(self, monkeypatch):
        func, machine = self._func()
        real = matrix.mirror_rows

        def corrupted(rows):
            sym = real(rows)
            if sym:
                sym[0] ^= 1  # register 0 now interferes with itself
            return sym

        monkeypatch.setattr(matrix, "mirror_rows", corrupted)
        with pytest.raises(OracleMismatch, match="interference"):
            self._allocate(func, machine)

    def test_corrupted_cpg_reachability(self, monkeypatch):
        func, machine = self._func()
        real = cpg_mod._wig_rows_gathered

        def corrupted(graph, wig):
            nodes, idx, adj, preg_deg = real(graph, wig)
            # Claim every node interferes with nothing: the replay then
            # wires the CPG edges differently.  (Zeroing a single row is
            # not enough — that node may happen to have no neighbors.)
            assert any(adj), "test function's WIG has no edges"
            return nodes, idx, [0] * len(adj), preg_deg

        monkeypatch.setattr(cpg_mod, "_wig_rows_gathered", corrupted)
        with pytest.raises(OracleMismatch, match="CPG"):
            self._allocate(func, machine)


@contextmanager
def dataflow(mode: str):
    """``default`` production, ``validate`` with every kernel call and
    every spill round's re-analysis checked against its oracle."""
    with ExitStack() as stack:
        if mode == "validate":
            stack.enter_context(validate_dataflow())
            stack.enter_context(validate_rounds())
        yield


MODES = ("default", "validate")


class TestAllocationIdentity:
    def _fingerprint(self, func, machine, allocator_factory):
        alloc = allocator_factory()
        result = allocate_function(clone_function(func), machine, alloc)
        return (
            sorted((v.id, str(p)) for v, p in result.assignment.items()),
            (result.stats.moves_eliminated, result.stats.spill_loads,
             result.stats.spill_stores, result.stats.spilled_webs,
             result.stats.rounds),
            estimate_cycles(result.func, machine).total,
        )

    def test_single_round_identical_across_modes(self):
        profile = BenchmarkProfile(name="matrix", stmts=18, int_pool=6,
                                   float_pool=2, max_params=2,
                                   max_call_args=2)
        for seed in (0, 5):
            func, machine = _prepared(profile, seed, k=16)
            runs = {}
            for mode in MODES:
                with dataflow(mode):
                    runs[mode] = self._fingerprint(
                        func, machine, PreferenceDirectedAllocator
                    )
            assert runs["default"] == runs["validate"]

    def test_spill_rounds_identical_across_modes(self):
        # k=4 forces multi-round allocations: every spill round's
        # re-analysis must match the from-scratch analyses.
        profile = BenchmarkProfile(name="matrix", stmts=24, int_pool=10,
                                   max_params=2, max_call_args=2)
        saw_spill = False
        for seed in (1, 4, 9):
            func, machine = _prepared(profile, seed, k=4)
            runs = {}
            for mode in MODES:
                with dataflow(mode):
                    try:
                        runs[mode] = self._fingerprint(
                            func, machine, ChaitinAllocator
                        )
                    except AllocationError as err:
                        if "pressure cannot be met" not in str(err):
                            raise
                        runs[mode] = ("pressure-error", str(err))
            assert runs["default"] == runs["validate"]
            if runs["default"][0] != "pressure-error" \
                    and runs["default"][1][4] > 1:
                saw_spill = True
        assert saw_spill, "no workload actually spilled"


class TestNoNumpy:
    def test_allocation_never_imports_numpy(self):
        # The kernels are pure Python: allocating a suite module with
        # every allocator, with the dataflow sets materialized and the
        # cycle estimate run, must leave numpy unimported.
        code = (
            "import sys\n"
            "from repro.pipeline import allocate_module, prepare_module\n"
            "from repro.service.scheduler import ALLOCATOR_FACTORIES\n"
            "from repro.target.presets import make_machine\n"
            "from repro.workloads import make_benchmark\n"
            "machine = make_machine(16)\n"
            "prepared = prepare_module(make_benchmark('db'), machine)\n"
            "for name in sorted(ALLOCATOR_FACTORIES):\n"
            "    allocate_module(prepared, machine,\n"
            "                    ALLOCATOR_FACTORIES[name]())\n"
            "print(len(ALLOCATOR_FACTORIES), 'numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": _src_path()}
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True,
                             env=env)
        assert out.stdout.split() == ["8", "False"]


def _src_path() -> str:
    from pathlib import Path

    import repro

    return str(Path(repro.__file__).resolve().parents[1])
