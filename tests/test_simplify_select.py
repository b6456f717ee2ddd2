"""Simplification (both modes), spill choice, and the select phase."""

import pytest

from repro.analysis.interference import build_interference
from repro.errors import AllocationError
from repro.ir.builder import IRBuilder
from repro.ir.values import Const, RegClass, VReg
from repro.regalloc.igraph import build_alloc_graph
from repro.regalloc.select import order_colors, select
from repro.regalloc.simplify import choose_spill_candidate, simplify
from repro.target.presets import figure7_machine, make_machine


def clique_function(n: int):
    """n values all simultaneously live (a clique in the graph)."""
    b = IRBuilder("clique", n_params=0)
    values = [b.const(i) for i in range(n)]
    acc = values[0]
    for v in values[1:]:
        acc = b.add(acc, v)
    b.ret(acc)
    return b.finish(), values


def graph_for(func, machine, rclass=RegClass.INT, costs=None):
    ig = build_interference(func)
    return build_alloc_graph(ig, machine, rclass, costs)


class TestSimplify:
    def test_colorable_graph_never_marks_spills(self):
        func, _ = clique_function(3)
        graph = graph_for(func, figure7_machine())
        result = simplify(graph, optimistic=False)
        assert not result.spilled
        assert not graph.active

    def test_chaitin_marks_definite_spill(self):
        func, values = clique_function(5)
        graph = graph_for(func, figure7_machine())  # K = 3
        result = simplify(graph, optimistic=False)
        assert result.spilled
        assert not result.optimistic

    def test_optimistic_pushes_instead(self):
        func, values = clique_function(5)
        graph = graph_for(func, figure7_machine())
        result = simplify(graph, optimistic=True)
        assert not result.spilled
        assert result.optimistic
        assert len(result.stack) == len(set(result.stack))

    def test_stack_contains_every_node(self):
        func, _ = clique_function(4)
        graph = graph_for(func, figure7_machine())
        nodes = set(graph.active_nodes())
        result = simplify(graph, optimistic=True)
        assert set(result.stack) == nodes

    def test_select_order_reverses_stack(self):
        func, _ = clique_function(3)
        graph = graph_for(func, figure7_machine())
        result = simplify(graph)
        assert result.select_order == list(reversed(result.stack))


class TestSpillCandidate:
    def test_min_cost_per_degree(self):
        func, values = clique_function(4)
        costs = {v: 100.0 for v in values}
        cheap = values[2]
        costs[cheap] = 1.0
        graph = graph_for(func, figure7_machine(), costs=costs)
        # restrict to the original pool values present in the graph
        pool = [v for v in values if graph.is_active(v)]
        assert choose_spill_candidate(graph, pool) == cheap

    def test_no_spill_nodes_never_chosen(self):
        func, values = clique_function(4)
        graph = graph_for(func, figure7_machine())
        for node in graph.active_nodes():
            graph.spill_costs[node] = float("inf")
        object.__setattr__  # silence lint; we use real no-spill below
        with pytest.raises(AllocationError):
            # all infinite -> no candidate
            choose_spill_candidate(graph, graph.active_nodes())


class TestOrderColors:
    def test_nonvolatile_first(self):
        machine = make_machine(8)
        regfile = machine.file(RegClass.INT)
        ordered = order_colors(regfile.regs, regfile, "nonvolatile_first")
        assert not regfile.is_volatile(ordered[0])
        assert regfile.is_volatile(ordered[-1])

    def test_volatile_first(self):
        machine = make_machine(8)
        regfile = machine.file(RegClass.INT)
        ordered = order_colors(regfile.regs, regfile, "volatile_first")
        assert regfile.is_volatile(ordered[0])

    def test_index_order(self):
        machine = make_machine(8)
        regfile = machine.file(RegClass.INT)
        ordered = order_colors(regfile.regs, regfile, "index")
        assert [r.index for r in ordered] == list(range(8))

    def test_unknown_policy(self):
        machine = make_machine(8)
        regfile = machine.file(RegClass.INT)
        with pytest.raises(AllocationError):
            order_colors(regfile.regs, regfile, "nope")


class TestSelect:
    def test_neighbors_get_distinct_colors(self):
        func, _ = clique_function(3)
        machine = figure7_machine()
        graph = graph_for(func, machine)
        result = simplify(graph)
        colored = select(graph, result.select_order,
                         machine.file(RegClass.INT))
        values = [v for v in colored.assignment]
        for i, a in enumerate(values):
            for b_ in values[i + 1:]:
                if graph.interferes(a, b_):
                    assert colored.assignment[a] != colored.assignment[b_]

    def test_optimistic_failure_spills(self):
        func, _ = clique_function(5)
        machine = figure7_machine()
        graph = graph_for(func, machine)
        result = simplify(graph, optimistic=True)
        colored = select(graph, result.select_order,
                         machine.file(RegClass.INT),
                         optimistic_nodes=result.optimistic)
        assert colored.spilled
        assert colored.spilled <= result.optimistic

    def test_biased_coloring_hits_copy(self):
        b = IRBuilder("f", n_params=0)
        x = b.const(1)
        blocker = b.const(2)
        y = b.move(x)          # copy-related, x dead after
        z = b.add(y, blocker)
        b.ret(z)
        func = b.finish()
        machine = make_machine(8)
        graph = graph_for(func, machine)
        result = simplify(graph)
        colored = select(graph, result.select_order,
                         machine.file(RegClass.INT), biased=True)
        assert colored.assignment[x] == colored.assignment[y]
        assert colored.biased_hits >= 1

    def test_non_optimistic_failure_raises(self):
        func, _ = clique_function(5)
        machine = figure7_machine()
        graph = graph_for(func, machine)
        result = simplify(graph, optimistic=True)
        with pytest.raises(AllocationError):
            select(graph, result.select_order,
                   machine.file(RegClass.INT), optimistic_nodes=set())
