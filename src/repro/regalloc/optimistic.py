"""Park & Moon's optimistic coalescing [7].

Figure 2(b): coalesce *aggressively* up front to harvest the positive
side of coalescing, then, when a coalesced node fails to get a color in
the select phase, *undo* the coalesce: split the node back into its
primitive members, color the most valuable colorable member now, and
push the remaining members to the bottom of the stack (colored after
everything else).  Members that still find no color at the bottom are
spilled individually.

Interference for split primitives comes from the round's original
(pre-coalesce) interference graph, which is immutable; colors of
coalesced representatives resolve through the live alias map.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.interference import InterferenceGraph
from repro.ir.values import PReg, Register, VReg
from repro.regalloc.base import Allocator, RoundContext, RoundOutcome
from repro.regalloc.coalesce import coalesce_aggressive
from repro.regalloc.igraph import AllocGraph
from repro.regalloc.select import order_colors
from repro.regalloc.simplify import simplify
from repro.target.machine import RegisterFile

__all__ = ["OptimisticCoalescingAllocator"]


class OptimisticCoalescingAllocator(Allocator):
    """Aggressive coalescing with undo-on-spill (Park–Moon)."""

    name = "optimistic-coalescing"

    def __init__(self, color_policy: str = "nonvolatile_first"):
        self.color_policy = color_policy

    def allocate_round(self, ctx: RoundContext) -> RoundOutcome:
        outcome = RoundOutcome()
        for rclass in ctx.classes():
            graph = ctx.graph(rclass)
            outcome.coalesced_count += coalesce_aggressive(graph)
            result = simplify(graph, optimistic=True)
            self._select_with_undo(
                ctx.ig, graph, result.select_order, result.optimistic,
                ctx.machine.file(rclass), outcome,
            )
            outcome.alias.update(graph.alias)
        return outcome

    # ------------------------------------------------------------------

    def _select_with_undo(
        self,
        ig: InterferenceGraph,
        graph: AllocGraph,
        order: list[VReg],
        optimistic: set[VReg],
        regfile: RegisterFile,
        outcome: RoundOutcome,
    ) -> None:
        preference = order_colors(graph.colors, regfile, self.color_policy)
        assignment = outcome.assignment
        queue: deque[VReg] = deque(order)
        bottom: deque[VReg] = deque()  # undone primitives, colored last
        spilled_here: set[VReg] = set()

        def forbidden(node: VReg) -> set[PReg]:
            out: set[PReg] = set()
            for member in graph.members_of(node):
                for w in ig.neighbors(member):
                    rep = graph.find(w)
                    if isinstance(rep, PReg):
                        out.add(rep)
                    elif rep in assignment:
                        out.add(assignment[rep])
            return out

        def try_color(node: VReg) -> bool:
            available = [c for c in preference if c not in forbidden(node)]
            if not available:
                return False
            color = None
            for partner in sorted(graph.copy_related(node), key=_pkey):
                pcolor = partner if isinstance(partner, PReg) \
                    else assignment.get(partner)
                if pcolor in available:
                    color = pcolor
                    outcome.biased_hits += 1
                    break
            assignment[node] = color if color is not None else available[0]
            return True

        while queue or bottom:
            from_bottom = not queue
            node = queue.popleft() if queue else bottom.popleft()
            if try_color(node):
                continue
            members = {
                m for m in graph.members_of(node) if isinstance(m, VReg)
            }
            if len(members) > 1 and not from_bottom:
                # Undo the coalesce: members become primitives again.
                for m in members:
                    graph.alias.pop(m, None)
                    graph.members[m] = {m}
                # Color the costliest colorable member immediately; the
                # rest go to the bottom of the stack.
                colorable = [
                    m for m in sorted(
                        members,
                        key=lambda r: -graph.spill_costs.get(r, 0.0),
                    )
                    if [c for c in preference if c not in forbidden(m)]
                ]
                rest = set(members)
                if colorable:
                    first = colorable[0]
                    took = try_color(first)
                    assert took
                    rest.discard(first)
                bottom.extend(sorted(rest, key=lambda r: r.id))
                continue
            spilled_here.add(node)

        for node in spilled_here:
            for member in graph.members_of(node):
                if isinstance(member, VReg):
                    outcome.spilled.add(member)


def _pkey(reg: Register) -> tuple:
    return (0 if isinstance(reg, PReg) else 1,
            getattr(reg, "index", getattr(reg, "id", 0)))
