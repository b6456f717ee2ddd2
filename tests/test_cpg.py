"""Coloring Precedence Graph: the Figure 7(e) structure and the
colorability property the partial order certifies."""

import random

from repro.analysis.interference import build_interference
from repro.analysis.renumber import renumber
from repro.core.cpg import BOTTOM, TOP, build_cpg
from repro.ir.clone import clone_function
from repro.ir.values import RegClass
from repro.regalloc.igraph import build_alloc_graph
from repro.regalloc.simplify import simplify
from repro.target.lowering import lower_function
from repro.target.presets import figure7_machine, make_machine

from conftest import build_call_heavy, build_diamond, build_figure7
from cpg_queries import (
    initial_queue,
    live_nodes,
    preds_of,
    reaches,
    topological_orders_exist,
)


def cpg_for(func, machine, rclass=RegClass.INT):
    """Replicates the allocator's per-round CPG construction; returns
    the WIG as its set of live ranges."""
    renumber(func)
    ig = build_interference(func)
    graph = build_alloc_graph(ig, machine, rclass)
    wig = graph.active
    wig_nodes = set(graph.active_nodes())
    simplification = simplify(graph, optimistic=True)
    cpg = build_cpg(graph, wig, simplification)
    return cpg, graph, wig_nodes, simplification


class TestFigure7:
    """Replays the paper's example: removal order v0 v4 v1 v2 v3 at K=3
    gives edges v1->v0, v2->v0, v3->v4 with v1, v2, v3 under top."""

    def setup_method(self):
        func = build_figure7()
        machine = figure7_machine()
        lower_function(func, machine)
        self.cpg, self.graph, _, self.simpl = cpg_for(func, machine)
        self.by_name = {}
        for node in live_nodes(self.cpg):
            base = (node.name or "").split(".")[0]
            self.by_name[base] = node
        # paper name -> our builder name
        self.v = {
            "v0": self.by_name["v1"], "v1": self.by_name["v2"],
            "v2": self.by_name["v3"], "v3": self.by_name["v4"],
            "v4": self.by_name["v5"],
        }

    def test_edges_match_paper(self):
        v = self.v
        assert v["v0"] in self.cpg.succs[v["v1"]]
        assert v["v0"] in self.cpg.succs[v["v2"]]
        assert v["v4"] in self.cpg.succs[v["v3"]]

    def test_initial_queue_is_v1_v2_v3(self):
        initial = set(initial_queue(self.cpg))
        expected = {self.v["v1"], self.v["v2"], self.v["v3"]}
        # the condition vreg of our transcription also floats at top level
        assert expected <= initial

    def test_bottom_reachable_from_initially_ready(self):
        # The paper draws v0 -> bottom and v4 -> bottom.  Our
        # transcription has one extra node (the branch condition), so a
        # direct edge may legally be dropped as transitive; reachability
        # is the invariant.
        v = self.v
        assert reaches(self.cpg, v["v0"], BOTTOM)
        assert reaches(self.cpg, v["v4"], BOTTOM)

    def test_acyclic(self):
        assert topological_orders_exist(self.cpg)


class TestStructure:
    def test_every_live_range_present(self):
        func = build_diamond()
        machine = make_machine(8)
        lower_function(func, machine)
        cpg, graph, wig, _ = cpg_for(func, machine)
        assert set(live_nodes(cpg)) == wig

    def test_every_node_has_a_predecessor(self):
        func = build_call_heavy()
        machine = make_machine(8)
        lower_function(func, machine)
        cpg, *_ = cpg_for(func, machine)
        preds = preds_of(cpg)
        for node in live_nodes(cpg):
            assert preds[node], f"{node} has no predecessor"

    def test_no_transitive_direct_edges_to_bottom(self):
        # Step 7: a direct edge to bottom must not coexist with another
        # successor that already reaches bottom.
        func = build_call_heavy()
        machine = make_machine(8)
        lower_function(func, machine)
        cpg, *_ = cpg_for(func, machine)
        succs = cpg.succs
        for node in live_nodes(cpg):
            if BOTTOM not in succs[node]:
                continue
            for succ in succs[node]:
                if succ in (BOTTOM, TOP):
                    continue
                assert not reaches(cpg, succ, BOTTOM), (
                    f"{node} -> bottom is transitive via {succ}"
                )

    def test_reaches(self):
        func = build_diamond()
        machine = make_machine(8)
        lower_function(func, machine)
        cpg, *_ = cpg_for(func, machine)
        preds = preds_of(cpg)
        for node in live_nodes(cpg):
            assert reaches(cpg, TOP, node) or not preds[node]


class TestColorabilityProperty:
    """The paper's central claim: ANY topological order of the CPG
    colors every non-optimistic node greedily."""

    def check(self, func, machine, seed):
        cpg, graph, wig, simpl = cpg_for(func, machine)
        rng = random.Random(seed)
        # Build a random topological order.
        succs = cpg.succs
        indeg = {n: len(p) for n, p in preds_of(cpg).items()}
        frontier = [n for n, d in indeg.items() if d == 0 and n != BOTTOM]
        order = []
        while frontier:
            node = rng.choice(frontier)
            frontier.remove(node)
            order.append(node)
            for succ in succs.get(node, ()):
                indeg[succ] -= 1
                if indeg[succ] == 0 and succ != BOTTOM:
                    frontier.append(succ)
        assignment = {}
        for node in order:
            if node == TOP or not hasattr(node, "rclass"):
                continue
            forbidden = set()
            for n in graph.all_neighbors(node):
                if hasattr(n, "index"):
                    forbidden.add(n)
                elif n in assignment:
                    forbidden.add(assignment[n])
            free = [c for c in graph.colors if c not in forbidden]
            if node in simpl.optimistic:
                if free:
                    assignment[node] = free[0]
                continue
            assert free, (
                f"non-optimistic node {node} uncolorable in a valid "
                f"topological order (seed {seed})"
            )
            assignment[node] = free[0]

    def test_many_orders_figure7(self):
        for seed in range(25):
            func = build_figure7()
            machine = figure7_machine()
            lower_function(func, machine)
            self.check(func, machine, seed)

    def test_many_orders_call_heavy_small_k(self):
        for seed in range(25):
            func = build_call_heavy()
            machine = make_machine(4)
            lower_function(func, machine)
            self.check(func, machine, seed)
