"""DOT export of the analysis graphs."""

from repro.analysis.interference import build_interference
from repro.analysis.renumber import renumber
from repro.cfg.analysis import build_cfg
from repro.core.costs import CostModel
from repro.core.cpg import build_cpg
from repro.core.prefs import build_rpg
from repro.ir.values import RegClass
from repro.regalloc.igraph import build_alloc_graph
from repro.regalloc.simplify import simplify
from repro.target.lowering import lower_function
from repro.target.presets import figure7_machine
from repro.viz import cfg_to_dot, cpg_to_dot, interference_to_dot, rpg_to_dot
from repro.workloads.figures import figure7_function

from conftest import build_diamond


def figure7_pieces():
    machine = figure7_machine()
    func = figure7_function()
    lower_function(func, machine)
    renumber(func)
    costs = CostModel(func, machine)
    rpg = build_rpg(func, machine, costs)
    ig = build_interference(func)
    graph = build_alloc_graph(ig, machine, RegClass.INT)
    wig = graph.active
    cpg = build_cpg(graph, wig, simplify(graph, optimistic=True))
    return func, ig, rpg, cpg


class TestDotExports:
    def test_cfg_dot(self):
        dot = cfg_to_dot(build_cfg(build_diamond()))
        assert dot.startswith("digraph cfg {") and dot.endswith("}")
        assert '"entry" -> "then";' in dot
        assert '"entry" [peripheries=2];' in dot

    def test_interference_dot_undirected_and_deduped(self):
        _, ig, _, _ = figure7_pieces()
        dot = interference_to_dot(ig)
        assert dot.startswith("graph interference {")
        # undirected edges are emitted once per pair
        lines = [l for l in dot.splitlines() if " -- " in l
                 and "dashed" not in l]
        assert len(lines) == len(set(lines))
        assert "style=dashed" in dot  # the copy relations

    def test_rpg_dot_carries_strengths(self):
        _, _, rpg, _ = figure7_pieces()
        dot = rpg_to_dot(rpg)
        assert "coalesce" in dot
        assert "sequential" in dot
        assert "vol:40, n-vol:38" in dot      # the paper's v3 edge
        assert "shape=octagon" in dot          # register-class groups

    def test_cpg_dot_has_top_and_bottom(self):
        _, _, _, cpg = figure7_pieces()
        dot = cpg_to_dot(cpg)
        assert '"top"' in dot and '"bottom"' in dot
        assert dot.count("->") >= 5

    def test_dot_is_parseable_shape(self):
        # cheap structural sanity: braces balance, all edges quoted
        for dot in (
            cfg_to_dot(build_cfg(build_diamond())),
            cpg_to_dot(figure7_pieces()[3]),
        ):
            assert dot.count("{") == dot.count("}")
            for line in dot.splitlines():
                if "->" in line or " -- " in line:
                    assert line.count('"') % 2 == 0
