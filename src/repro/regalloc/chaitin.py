"""Chaitin's allocator with aggressive coalescing — the paper's baseline.

Figure 1(a): renumber → build → coalesce (aggressive) → simplify →
spill code → select.  Simplification is *pessimistic*: when only
significant-degree nodes remain one is marked spilled outright, and a
round that marks any spill goes straight to spill-code insertion without
coloring.  This is the "base algorithm" every ratio in Figure 9 is
normalized to.
"""

from __future__ import annotations

from repro.ir.values import VReg
from repro.regalloc.base import Allocator, RoundContext, RoundOutcome
from repro.regalloc.coalesce import coalesce_aggressive
from repro.regalloc.select import select
from repro.regalloc.simplify import simplify

__all__ = ["ChaitinAllocator"]


class ChaitinAllocator(Allocator):
    """Chaitin-style coloring with aggressive coalescing."""

    name = "chaitin-aggressive"

    def __init__(self, color_policy: str = "nonvolatile_first",
                 biased: bool = False):
        self.color_policy = color_policy
        self.biased = biased

    def allocate_round(self, ctx: RoundContext) -> RoundOutcome:
        outcome = RoundOutcome()
        pending: list[tuple] = []
        for rclass in ctx.classes():
            graph = ctx.graph(rclass)
            outcome.coalesced_count += coalesce_aggressive(graph)
            result = simplify(graph, optimistic=False)
            outcome.alias.update(graph.alias)
            if result.spilled:
                # Spill the *entire* coalesced range of each marked node.
                for rep in result.spilled:
                    for member in graph.members_of(rep):
                        if isinstance(member, VReg):
                            outcome.spilled.add(member)
            pending.append((graph, result, rclass))
        if outcome.spilled:
            return outcome
        for graph, result, rclass in pending:
            colored = select(
                graph,
                result.select_order,
                ctx.machine.file(rclass),
                policy=self.color_policy,
                optimistic_nodes=set(),
                biased=self.biased,
            )
            outcome.assignment.update(colored.assignment)
            outcome.biased_hits += colored.biased_hits
        return outcome
