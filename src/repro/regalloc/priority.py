"""Chow & Hennessy's priority-based coloring [4] — the Section 7 contrast.

The paper positions its contribution against the *other* classical
coloring family: "the former [Chaitin] favors packing live ranges while
the latter favors allocating more live ranges with higher priority
though that may use more colors."  This implementation follows that
characterization:

* live ranges with degree < K are *unconstrained* — they can always be
  colored, so they wait until the end;
* constrained live ranges are colored in **priority order** — highest
  first — where priority is the classic savings-per-size measure:
  frequency-weighted spill cost divided by the live range's footprint;
* a constrained range that finds no free color is spilled (the original
  splits; Chaitin-style spilling keeps the framework comparable);
* color choice prefers registers already used by the function (priority
  allocation famously spreads across more registers; reusing first keeps
  the comparison honest while preserving the ordering policy under
  study).

Included for completeness of the paper's landscape; no figure uses it,
but the CLI, the speed bench, and the test suite exercise it alongside
the Chaitin-family allocators.
"""

from __future__ import annotations

from repro.analysis.indexing import iter_bits
from repro.analysis.liveness import instruction_liveness_masks
from repro.ir.values import PReg, VReg
from repro.regalloc.base import Allocator, RoundContext, RoundOutcome
from repro.regalloc.igraph import AllocGraph
from repro.regalloc.select import forbidden_colors, order_colors

__all__ = ["PriorityAllocator"]


class PriorityAllocator(Allocator):
    """Priority-based coloring (Chow–Hennessy style)."""

    name = "priority-based"

    def __init__(self, color_policy: str = "nonvolatile_first"):
        self.color_policy = color_policy

    def allocate_round(self, ctx: RoundContext) -> RoundOutcome:
        outcome = RoundOutcome()
        sizes = _live_range_sizes(ctx)
        for rclass in ctx.classes():
            graph = ctx.graph(rclass)
            self._color_class(ctx, graph, rclass, sizes, outcome)
        return outcome

    # ------------------------------------------------------------------

    def _color_class(self, ctx, graph: AllocGraph, rclass, sizes,
                     outcome: RoundOutcome) -> None:
        regfile = ctx.machine.file(rclass)
        preference = order_colors(graph.colors, regfile, self.color_policy)

        def priority(node: VReg) -> float:
            return ctx.spill_costs.get(node, 0.0) / max(sizes.get(node, 1),
                                                        1)

        constrained = sorted(
            (n for n in graph.active_nodes() if graph.significant(n)),
            key=lambda n: (-priority(n), n.id),
        )
        unconstrained = sorted(
            (n for n in graph.active_nodes() if not graph.significant(n)),
            key=lambda n: n.id,
        )

        used: set[PReg] = set()
        for node in constrained + unconstrained:
            forbidden = forbidden_colors(graph, node, outcome.assignment)
            free = [c for c in preference if c not in forbidden]
            if not free:
                if node.no_spill or not graph.significant(node):
                    # Unconstrained nodes are colorable by definition;
                    # running out here means interference with colors
                    # assigned to higher-priority neighbors — spill the
                    # cheapest spillable thing, which is this node unless
                    # it is a reload temp (then give up on a neighbor).
                    spill_target = _cheapest_neighbor(ctx, graph, node,
                                                      outcome)
                    outcome.assignment.pop(spill_target, None)
                    outcome.spilled.add(spill_target)
                    free = [
                        c for c in preference
                        if c not in forbidden_colors(graph, node,
                                                     outcome.assignment)
                    ]
                    if not free:
                        outcome.spilled.add(node)
                        continue
                else:
                    outcome.spilled.add(node)
                    continue
            # Prefer re-using registers already handed out: priority
            # coloring's tendency to use many colors is costly on
            # stacked register files (the paper's IA-64 remark).
            color = next((c for c in free if c in used), free[0])
            used.add(color)
            outcome.assignment[node] = color


def _cheapest_neighbor(ctx, graph: AllocGraph, node: VReg,
                       outcome: RoundOutcome) -> VReg:
    candidates = [
        n for n in graph.all_neighbors(node)
        if isinstance(n, VReg) and n in outcome.assignment
        and not n.no_spill
    ]
    if not candidates:
        return node
    return min(candidates,
               key=lambda n: (ctx.spill_costs.get(n, 0.0), n.id))


def _live_range_sizes(ctx) -> dict[VReg, int]:
    """Footprint of each live range: instructions where it is live."""
    index, after = instruction_liveness_masks(ctx.func, ctx.liveness)
    vregs = ~index.preg_mask
    counts: dict[int, int] = {}
    for mask in after.values():
        for i in iter_bits(mask & vregs):
            counts[i] = counts.get(i, 0) + 1
    return {index.regs[i]: n for i, n in counts.items()}
