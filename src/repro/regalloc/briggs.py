"""Briggs-style optimistic coloring with aggressive coalescing.

Figure 1(b): simplification never gives up — when only significant-degree
nodes remain, the cheapest is *optimistically* pushed ("potential spill")
and the select phase decides.  Biased coloring gives copy-related nodes a
chance at the same register even when coalescing didn't merge them.  This
is the "Briggs + aggressive" comparator of Figures 9 and 11, called the
second best approach in Park and Moon's study.
"""

from __future__ import annotations

from repro.ir.values import VReg
from repro.regalloc.base import Allocator, RoundContext, RoundOutcome
from repro.regalloc.coalesce import coalesce_aggressive
from repro.regalloc.select import select
from repro.regalloc.simplify import simplify

__all__ = ["BriggsAllocator"]


class BriggsAllocator(Allocator):
    """Optimistic coloring + aggressive coalescing + biased select."""

    name = "briggs-aggressive"

    def __init__(self, color_policy: str = "nonvolatile_first",
                 biased: bool = True):
        self.color_policy = color_policy
        self.biased = biased

    def allocate_round(self, ctx: RoundContext) -> RoundOutcome:
        outcome = RoundOutcome()
        for rclass in ctx.classes():
            graph = ctx.graph(rclass)
            outcome.coalesced_count += coalesce_aggressive(graph)
            result = simplify(graph, optimistic=True)
            outcome.alias.update(graph.alias)
            colored = select(
                graph,
                result.select_order,
                ctx.machine.file(rclass),
                policy=self.color_policy,
                optimistic_nodes=result.optimistic,
                biased=self.biased,
            )
            outcome.assignment.update(colored.assignment)
            outcome.biased_hits += colored.biased_hits
            for rep in colored.spilled:
                for member in graph.members_of(rep):
                    if isinstance(member, VReg):
                        outcome.spilled.add(member)
        return outcome
