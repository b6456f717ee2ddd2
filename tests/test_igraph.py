"""The mutable coloring graph: degrees, removal, merging."""

import pytest

from repro.analysis.interference import build_interference
from repro.errors import AllocationError
from repro.ir.builder import IRBuilder
from repro.ir.values import PReg, RegClass, VReg
from repro.regalloc.igraph import INFINITE_DEGREE, build_alloc_graph
from repro.target.presets import middle_pressure


def small_graph():
    """Three mutually-interfering values plus a copy."""
    b = IRBuilder("f", n_params=0)
    x = b.const(1)
    y = b.const(2)
    z = b.const(3)
    t = b.move(x)
    u = b.add(y, z)
    v = b.add(u, t)
    w = b.add(v, x)
    b.ret(w)
    func = b.finish()
    machine = middle_pressure()
    ig = build_interference(func)
    graph = build_alloc_graph(ig, machine, RegClass.INT)
    return graph, (x, y, z, t)


class TestStructure:
    def test_active_nodes_are_vregs(self):
        graph, _ = small_graph()
        assert graph.active_nodes()
        assert all(isinstance(n, VReg) for n in graph.active_nodes())

    def test_degree_matches_neighbors(self):
        graph, (x, y, z, t) = small_graph()
        for node in graph.active_nodes():
            assert graph.degree(node) == len(graph.neighbors(node))

    def test_precolored_infinite_degree(self):
        graph, _ = small_graph()
        assert graph.degree(PReg(0)) == INFINITE_DEGREE

    def test_all_colors_present(self):
        graph, _ = small_graph()
        assert len(graph.colors) == 24


class TestRemoval:
    def test_remove_updates_neighbor_degrees(self):
        graph, (x, y, z, t) = small_graph()
        before = {n: graph.degree(n) for n in graph.neighbors(y)
                  if isinstance(n, VReg)}
        graph.remove(y)
        for n, deg in before.items():
            assert graph.degree(n) == deg - 1

    def test_remove_twice_rejected(self):
        graph, (x, y, z, t) = small_graph()
        graph.remove(y)
        with pytest.raises(AllocationError):
            graph.remove(y)

    def test_neighbors_exclude_removed(self):
        graph, (x, y, z, t) = small_graph()
        neighbors_of_z = graph.neighbors(z)
        if y in neighbors_of_z:
            graph.remove(y)
            assert y not in graph.neighbors(z)
            assert y in graph.all_neighbors(z)


class TestMerge:
    def test_merge_unions_adjacency(self):
        graph, (x, y, z, t) = small_graph()
        assert not graph.interferes(x, t)
        neighbors = (graph.neighbors(x) | graph.neighbors(t)) - {x, t}
        graph.merge(x, t)
        assert graph.find(t) == x
        assert graph.neighbors(x) >= neighbors
        assert not graph.is_active(t)

    def test_merge_into_precolored(self):
        graph, (x, y, z, t) = small_graph()
        free_preg = next(
            c for c in graph.colors if not graph.interferes(t, c)
        )
        graph.merge(free_preg, t)
        assert graph.find(t) == free_preg
        assert t in graph.members_of(free_preg)

    def test_merge_adds_spill_costs(self):
        graph, (x, y, z, t) = small_graph()
        graph.spill_costs[x] = 5.0
        graph.spill_costs[t] = 3.0
        graph.merge(x, t)
        assert graph.spill_costs[x] == 8.0

    def test_merge_shared_neighbor_degree_drops(self):
        graph, (x, y, z, t) = small_graph()
        shared = [
            n for n in graph.neighbors(x) & graph.neighbors(t)
            if isinstance(n, VReg)
        ]
        degrees = {n: graph.degree(n) for n in shared}
        graph.merge(x, t)
        for n in shared:
            assert graph.degree(n) == degrees[n] - 1

    def test_merge_inactive_rejected(self):
        graph, (x, y, z, t) = small_graph()
        graph.remove(t)
        with pytest.raises(AllocationError):
            graph.merge(x, t)

    def test_no_spill_member_makes_cost_infinite(self):
        graph, (x, y, z, t) = small_graph()
        ns = VReg(100, no_spill=True)
        graph.active |= 1 << graph._id(ns)
        graph.merge(x, ns)
        assert graph.spill_cost(x) == float("inf")


class TestCopyRelations:
    def test_copy_related_via_moves(self):
        graph, (x, y, z, t) = small_graph()
        assert graph.find(t) in {
            graph.find(r) for r in graph.copy_related(x)
        } or t in graph.copy_related(x)

    def test_copy_related_follows_merges(self):
        graph, (x, y, z, t) = small_graph()
        graph.merge(x, t)
        # x and t merged: the move's other end resolves to x itself, so
        # no external copy relation remains for x through that move.
        assert x not in graph.copy_related(x)
