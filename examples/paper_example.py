#!/usr/bin/env python3
"""The paper's Figure 7, replayed step by step.

Prints the Register Preference Graph (with the strengths the paper
annotates: v4's 28, v3's 40/38, v1-v2's 50/48), the Coloring Precedence
Graph for K=3, the selection trace, and the final code — which matches
Figure 7(h) exactly.

Run:  python examples/paper_example.py
"""

from repro import print_function
from repro.analysis.interference import build_interference
from repro.analysis.renumber import renumber
from repro.core import (
    CostModel,
    PreferenceDirectedAllocator,
    build_cpg,
    build_rpg,
)
from repro.ir.clone import clone_function
from repro.ir.values import RegClass
from repro.regalloc import allocate_function
from repro.regalloc.igraph import build_alloc_graph
from repro.regalloc.simplify import simplify
from repro.sim.cycles import estimate_cycles
from repro.target import figure7_machine, lower_function
from repro.workloads import figure7_function


def main() -> None:
    machine = figure7_machine()
    func = figure7_function()
    print("=== Figure 7(a): the input program ===")
    print(print_function(func))

    lower_function(func, machine)
    print("\n=== after calling-convention lowering "
          "(arg0 = r1, as in the paper) ===")
    print(print_function(func))

    # --- the analysis structures, on a working copy --------------------
    probe = clone_function(func)
    renumber(probe)
    costs = CostModel(probe, machine)
    rpg = build_rpg(probe, machine, costs)
    print("\n=== Register Preference Graph (Figure 7(c)) ===")
    print("(the paper's annotated strengths: v4 prefers non-volatile at "
          "28;\n v3 coalesces with v0 at vol:40/n-vol:38; the v1-v2 "
          "sequential pair\n is vol:50/n-vol:48)")
    print(rpg)

    ig = build_interference(probe)
    graph = build_alloc_graph(ig, machine, RegClass.INT)
    wig = graph.active
    simplification = simplify(graph, optimistic=True)
    print("\n=== simplification stack (push order) ===")
    print("  " + ", ".join(str(n) for n in simplification.stack))

    cpg = build_cpg(graph, wig, simplification)
    print("\n=== Coloring Precedence Graph (Figure 7(e), K=3) ===")
    print(cpg)

    # --- the actual allocation, with its decision trace ----------------
    allocator = PreferenceDirectedAllocator(keep_trace=True)
    result = allocate_function(func, machine, allocator)
    print("\n=== selection trace (Section 5.3) ===")
    print(allocator.last_trace)

    print("\n=== Figure 7(h): the final code ===")
    print(print_function(func))

    stats = result.stats
    report = estimate_cycles(func, machine)
    print(f"\nmoves eliminated: {stats.moves_eliminated}"
          f"/{stats.moves_before} (the paper eliminates both copies)")
    print(f"paired loads fused: {report.paired_loads_fused} "
          f"(the paper's coupled load r2,r3 = [r1])")
    assert stats.moves_eliminated == stats.moves_before == 3
    assert report.paired_loads_fused == 1


if __name__ == "__main__":
    main()
