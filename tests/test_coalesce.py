"""Aggressive coalescing and its merge primitives."""

from repro.analysis.interference import build_interference
from repro.ir.builder import IRBuilder
from repro.ir.values import PReg, RegClass
from repro.regalloc.coalesce import coalesce_aggressive, merge_move, mergeable
from repro.regalloc.igraph import build_alloc_graph
from repro.target.presets import make_machine


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


class TestMergeMove:
    def test_identity_after_merge_not_remergeable(self):
        func = copy_chain(1)
        graph = graph_of(func, make_machine(8))
        mv = graph.moves[0]
        assert merge_move(graph, mv) is not None
        assert merge_move(graph, mv) is None

