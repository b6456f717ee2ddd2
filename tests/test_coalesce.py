"""Coalescing strategies: aggressive, Briggs, George."""

from repro.analysis.interference import build_interference
from repro.ir.builder import IRBuilder
from repro.ir.values import Const, PReg, RegClass, VReg
from repro.regalloc.coalesce import (
    briggs_conservative_ok,
    coalesce_aggressive,
    coalesce_conservative,
    conservative_ok,
    george_ok,
    merge_move,
    mergeable,
)
from repro.regalloc.igraph import build_alloc_graph
from repro.target.presets import figure7_machine, make_machine


def graph_of(func, machine):
    return build_alloc_graph(build_interference(func), machine,
                             RegClass.INT)


def copy_chain(n_copies: int):
    b = IRBuilder("f", n_params=1)
    cur = b.param(0)
    for _ in range(n_copies):
        cur = b.move(cur)
    b.ret(cur)
    return b.finish()


class TestMergeable:
    def test_non_interfering_copy_ok(self):
        func = copy_chain(1)
        machine = make_machine(8)
        graph = graph_of(func, machine)
        mv = graph.moves[0]
        assert mergeable(graph, mv.dst, mv.src)

    def test_interfering_pair_rejected(self):
        b = IRBuilder("f", n_params=1)
        t = b.move(b.param(0))
        u = b.add(t, b.param(0))  # t and p0 both live: interfere? no...
        v = b.add(u, t)
        b.ret(v)
        func = b.finish()
        machine = make_machine(8)
        graph = graph_of(func, machine)
        active = graph.active_nodes()
        # find an actually interfering pair
        pairs = [
            (x, y) for x in active for y in active
            if x != y and graph.interferes(x, y)
        ]
        assert pairs
        x, y = pairs[0]
        assert not mergeable(graph, x, y)

    def test_two_physicals_rejected(self):
        func = copy_chain(1)
        graph = graph_of(func, make_machine(8))
        assert not mergeable(graph, PReg(0), PReg(1))


class TestAggressive:
    def test_chain_collapses_fully(self):
        func = copy_chain(4)
        graph = graph_of(func, make_machine(8))
        merged = coalesce_aggressive(graph)
        assert merged == 4  # every chain copy merged
        reps = {graph.find(mv.dst) for mv in graph.moves}
        reps |= {graph.find(mv.src) for mv in graph.moves}
        assert len(reps) == 1

    def test_merges_into_physical(self):
        b = IRBuilder("f", n_params=0)
        v = b.const(1)
        b.emit_preg_move = None  # readability only
        from repro.ir.instructions import Move, Ret

        b.current.instrs.append(Move(PReg(0), v))
        b.current.instrs.append(Ret(None, reg_uses=[PReg(0)]))
        func = b.func
        graph = graph_of(func, make_machine(8))
        merged = coalesce_aggressive(graph)
        assert merged == 1
        assert graph.find(v) == PReg(0)


class TestConservative:
    def test_briggs_ok_in_sparse_graph(self):
        func = copy_chain(2)
        graph = graph_of(func, make_machine(8))
        mv = graph.moves[0]
        assert briggs_conservative_ok(graph, graph.find(mv.dst),
                                      graph.find(mv.src))

    def test_briggs_blocks_when_too_many_significant(self):
        # Build a dense graph: K=4 machine, a 5-clique around the pair.
        b = IRBuilder("f", n_params=1)
        x = b.move(b.param(0))
        others = [b.const(i) for i in range(5)]
        y = b.move(x)
        acc = y
        for o in others:
            acc = b.add(acc, o)
        acc = b.add(acc, x)
        b.ret(acc)
        func = b.finish()
        machine = make_machine(4)
        graph = graph_of(func, machine)
        merged = coalesce_conservative(graph)
        aggressive = graph_of(func, machine)
        merged_aggr = coalesce_aggressive(aggressive)
        assert merged <= merged_aggr

    def test_george_with_precolored(self):
        func = copy_chain(1)
        graph = graph_of(func, make_machine(8))
        v = graph.moves[0].dst
        # merging v into a fresh physical register: all of v's neighbors
        # are low-degree, so the George test passes
        free = next(c for c in graph.colors if not graph.interferes(v, c))
        assert george_ok(graph, v, free)

    def test_conservative_ok_dispatches(self):
        func = copy_chain(1)
        graph = graph_of(func, make_machine(8))
        mv = graph.moves[0]
        assert conservative_ok(graph, mv.dst, mv.src) in (True, False)


class TestMergeMove:
    def test_identity_after_merge_not_remergeable(self):
        func = copy_chain(1)
        graph = graph_of(func, make_machine(8))
        mv = graph.moves[0]
        assert merge_move(graph, mv) is not None
        assert merge_move(graph, mv) is None


def briggs_reference(ref, k, a, b) -> bool:
    """Briggs over register sets: fewer than K significant neighbors of
    the merged node, a shared vreg neighbor losing one edge."""
    na, nb = ref.neighbors(a), ref.neighbors(b)
    significant = 0
    for n in (na | nb) - {a, b}:
        if isinstance(n, PReg):
            significant += 1
            continue
        degree = ref.degree[n] - (n in na and n in nb)
        significant += degree >= k
    return significant < k


def george_reference(ref, k, a, b) -> bool:
    """George over register sets: every significant neighbor of ``a``
    already interferes with ``b``."""
    for t in ref.neighbors(a):
        if isinstance(t, VReg) and ref.degree[t] < k:
            continue
        if isinstance(t, PReg) and isinstance(b, PReg):
            if t != b:
                continue
        elif b in ref.adj.get(t, ()):
            continue
        return False
    return True


class TestRowTestsAgainstSets:
    """Briggs and George on the dense-id rows give the set-based
    answers for every move of the suite's functions, as aggressive
    coalescing merges them one by one."""

    def test_row_tests_match_set_reference(self):
        from oracles import SetAllocGraph, build_interference_reference
        from repro.ir.clone import clone_function
        from repro.pipeline import prepare_function
        from repro.workloads import make_suite

        machine = make_machine(16)
        checked = 0
        for module in make_suite().values():
            for func in module.functions[:3]:
                func = prepare_function(clone_function(func), machine)
                graph = graph_of(func, machine)
                ref = SetAllocGraph(
                    build_interference_reference(func).adjacency,
                    RegClass.INT, graph.colors)
                for mv in graph.moves:
                    a, b = graph.find(mv.dst), graph.find(mv.src)
                    if not mergeable(graph, a, b):
                        continue
                    checked += 1
                    for x, y in ((a, b), (b, a)):
                        if not isinstance(x, PReg) and \
                                not isinstance(y, PReg):
                            assert briggs_conservative_ok(graph, x, y) \
                                == briggs_reference(ref, graph.k, x, y)
                        if not isinstance(x, PReg):
                            assert george_ok(graph, x, y) \
                                == george_reference(ref, graph.k, x, y)
                    kept = merge_move(graph, mv)
                    ref.merge(kept, b if kept == a else a)
        assert checked > 50
