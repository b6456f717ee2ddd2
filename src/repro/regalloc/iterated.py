"""George & Appel's iterated register coalescing [6].

Figure 2(a): simplification removes only *non-move-related* low-degree
nodes; when it blocks, conservative coalescing runs; when no move can be
conservatively coalesced, a low-degree move-related node is *frozen*
(its moves give up hope of coalescing and it becomes simplifiable);
when nothing can be frozen either, a spill candidate is optimistically
removed.  Select then colors with biased coloring, so frozen moves still
have a chance by luck.
"""

from __future__ import annotations

from repro.ir.instructions import Move
from repro.ir.values import VReg
from repro.regalloc.base import Allocator, RoundContext, RoundOutcome
from repro.regalloc.coalesce import conservative_ok, merge_move, mergeable
from repro.regalloc.select import select
from repro.regalloc.simplify import SimplifyResult, choose_spill_candidate

__all__ = ["IteratedCoalescingAllocator"]


class IteratedCoalescingAllocator(Allocator):
    """Iterated (conservative) coalescing interleaved with simplify."""

    name = "iterated-coalescing"

    def __init__(self, color_policy: str = "nonvolatile_first"):
        self.color_policy = color_policy

    def allocate_round(self, ctx: RoundContext) -> RoundOutcome:
        outcome = RoundOutcome()
        for rclass in ctx.classes():
            graph = ctx.graph(rclass)
            frozen: set[Move] = set()
            result = SimplifyResult()

            def live_moves(node: VReg) -> list[Move]:
                out = []
                for mv in graph.moves_of.get(node, ()):
                    if mv in frozen:
                        continue
                    a, b = graph.find(mv.dst), graph.find(mv.src)
                    if a == b:
                        continue
                    out.append(mv)
                return out

            def move_related(node: VReg) -> bool:
                return bool(live_moves(node))

            while graph.active:
                # --- simplify: non-move-related low-degree nodes --------
                candidates = sorted(
                    (
                        n for n in graph.active_nodes()
                        if not graph.significant(n) and not move_related(n)
                    ),
                    key=lambda r: r.id,
                )
                if candidates:
                    for node in candidates:
                        if graph.is_active(node) and not graph.significant(
                            node
                        ) and not move_related(node):
                            graph.remove(node)
                            result.stack.append(node)
                    continue
                # --- coalesce: one conservative merge, then re-simplify --
                merged = False
                for mv in graph.moves:
                    if mv in frozen:
                        continue
                    a, b = graph.find(mv.dst), graph.find(mv.src)
                    if not mergeable(graph, a, b):
                        continue
                    if conservative_ok(graph, a, b):
                        if merge_move(graph, mv) is not None:
                            outcome.coalesced_count += 1
                            merged = True
                            break
                if merged:
                    continue
                # --- freeze: give up on one low-degree node's moves ------
                freezable = sorted(
                    (
                        n for n in graph.active_nodes()
                        if not graph.significant(n) and move_related(n)
                    ),
                    key=lambda r: r.id,
                )
                if freezable:
                    frozen.update(live_moves(freezable[0]))
                    continue
                # --- potential spill -------------------------------------
                candidate = choose_spill_candidate(graph,
                                                   graph.active_nodes(),
                                                   ctx.policy)
                graph.remove(candidate)
                result.stack.append(candidate)
                result.optimistic.add(candidate)

            colored = select(
                graph,
                result.select_order,
                ctx.machine.file(rclass),
                policy=self.color_policy,
                optimistic_nodes=result.optimistic,
                biased=True,
            )
            outcome.assignment.update(colored.assignment)
            outcome.biased_hits += colored.biased_hits
            outcome.alias.update(graph.alias)
            for rep in colored.spilled:
                for member in graph.members_of(rep):
                    if isinstance(member, VReg):
                        outcome.spilled.add(member)
        return outcome
