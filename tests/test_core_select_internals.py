"""Internals of the Section 5.3 selector: asks, differentials, order,
deferred filtering, memory preference."""

import pytest

from oracles import choose_node_scan
from repro.analysis.interference import build_interference
from repro.analysis.renumber import renumber
from repro.core.costs import CostModel
from repro.core.cpg import build_cpg
from repro.core.prefs import PreferenceConfig, build_rpg
from repro.core.select import NEG_INF, PreferenceSelector
from repro.ir.builder import IRBuilder
from repro.ir.values import Const, RegClass
from repro.regalloc.igraph import build_alloc_graph
from repro.regalloc.simplify import simplify
from repro.target.lowering import lower_function
from repro.target.presets import figure7_machine, make_machine


def make_selector(func, machine, config=None, lowered=False):
    if not lowered:
        lower_function(func, machine)
    renumber(func)
    costs = CostModel(func, machine)
    rpg = build_rpg(func, machine, costs, config)
    ig = build_interference(func)
    graph = build_alloc_graph(ig, machine, RegClass.INT)
    wig = graph.snapshot_active_adjacency()
    simplification = simplify(graph, optimistic=True)
    cpg = build_cpg(graph, wig, simplification)
    return PreferenceSelector(
        graph=graph, rpg=rpg, cpg=cpg, machine=machine,
        regfile=machine.file(RegClass.INT), costs=costs,
        optimistic=simplification.optimistic,
    )


def web(selector, name):
    for node in selector.graph.adj:
        if getattr(node, "name", None) == name:
            return node
    raise AssertionError(f"no web named {name}")


class TestDifferential:
    def test_no_preferences_is_minus_infinity(self):
        b = IRBuilder("f", n_params=0)
        x = b.const(1)
        y = b.add(x, Const(1))
        b.ret(y)
        func = b.finish()
        config = PreferenceConfig(coalesce=False, dedicated=False,
                                  paired_loads=False, volatility=False,
                                  byte_loads=False)
        sel = make_selector(func, make_machine(8), config)
        node = sel.cpg.live_nodes()[0]
        assert sel._differential(node) == NEG_INF

    def test_single_preference_uses_own_strength(self):
        # One dedicated-coalesce edge only: differential = its strength.
        b = IRBuilder("f", n_params=1)
        t = b.move(b.param(0))
        b.ret(t)
        func = b.finish()
        config = PreferenceConfig.only_coalescing()
        machine = make_machine(8)
        sel = make_selector(func, machine, config)
        # the web that merges p0 has a coalesce edge to $r0 (entry move)
        node = web(sel, "p0")
        diff = sel._differential(node)
        assert diff not in (NEG_INF,)
        assert diff > 0

    def test_volatility_pair_differential(self):
        b = IRBuilder("f", n_params=1)
        keep = b.add(b.param(0), Const(1))
        b.call("helper", [b.param(0)])
        out = b.add(keep, Const(2))
        b.ret(out)
        func = b.finish()
        sel = make_selector(func, make_machine(8))
        node = web(sel, "keep") if _has_web(sel, "keep") else None
        # the call-crossing web has vol and nonvol asks whose strengths
        # differ by |3*crossings - 2|
        crossing = [
            n for n in sel.cpg.live_nodes()
            if sel.costs.crosses_calls(n)
        ]
        assert crossing
        for n in crossing:
            diff = sel._differential(n)
            assert diff >= abs(
                3 * sel.costs.cross_freq(n) - 2
            ) - 1e-9


def _has_web(sel, name):
    try:
        web(sel, name)
        return True
    except AssertionError:
        return False


class TestOrdering:
    def test_figure7_order(self):
        from repro.workloads.figures import figure7_function

        machine = figure7_machine()
        sel = make_selector(figure7_function(), machine)
        sel.run()
        # check the paper's final facts rather than internal order:
        v = {n.name.split(".")[0]: n for n in sel.assignment}
        assert sel.assignment[v["v4"]].index == 1       # v3 -> r1
        assert sel.assignment[v["v5"]].index == 3       # v4 -> r3
        assert sel.assignment[v["v2"]].index == 2       # v1 -> r2
        assert sel.assignment[v["v3"]].index == 3       # v2 -> r3
        assert sel.assignment[v["v1"]].index == 1       # v0 -> r1

    def test_highest_differential_first(self):
        from repro.workloads.figures import figure7_function

        machine = figure7_machine()
        sel = make_selector(figure7_function(), machine)
        queue = set(sel.cpg.initial_queue())
        for node in queue:
            sel._ready.push(node, sel._pick_key(node))
        chosen = sel._next_node()
        assert chosen == choose_node_scan(sel, queue)
        # v3's dedicated arg0 edge gives it the largest differential
        assert chosen.name.split(".")[0] == "v4"  # builder name for v3


class TestMemoryPreference:
    def test_cheap_crossing_web_spilled(self):
        # A web crossing many calls with minimal reuse prefers memory.
        b = IRBuilder("f", n_params=1)
        cheap = b.add(b.param(0), Const(1))
        for _ in range(4):
            b.call("helper", [b.param(0)])
        out = b.add(cheap, Const(1))
        b.ret(out)
        func = b.finish()
        machine = make_machine(4)      # both nonvolatile regs contested
        sel = make_selector(func, machine)
        sel.run()
        # spill_cost(cheap) = 1 + 2 = 3; nonvol placement = 1 > 0 so it
        # survives only if a nonvolatile register is free — with K=4
        # there are 2, and the p0 web takes one.  Whether it spills
        # depends on contention; assert consistency instead:
        for node in sel.spilled:
            vol = sel.costs.strength_volatile(node)
            nonvol = sel.costs.strength_nonvolatile(node)
            assert max(vol, nonvol) < 0 or not sel._available(node)

    def test_no_spill_temporaries_never_memory_spilled(self):
        b = IRBuilder("f", n_params=1)
        tmp = b.func.new_vreg(no_spill=True)
        b.const(1, dst=tmp)
        b.call("helper", [tmp])
        b.call("helper", [tmp])
        b.ret(tmp)
        func = b.finish()
        sel = make_selector(func, make_machine(8))
        sel.run()
        assert all(not n.no_spill for n in sel.spilled)


class TestDeferredFiltering:
    def test_seq_partner_filter_keeps_pairable_register(self):
        from conftest import build_paired_loads

        machine = make_machine(6)
        sel = make_selector(build_paired_loads(), machine)
        sel.run()
        # the two paired destinations must be adjacent
        dsts = [n for n in sel.assignment
                if (n.name or "").startswith("v")]
        pair_regs = sorted(
            sel.assignment[n].index for n in dsts
            if any(e.kind.name.startswith("SEQ")
                   for e in sel.rpg.edges_from(n))
        )
        if len(pair_regs) == 2:
            assert pair_regs[1] == pair_regs[0] + 1
