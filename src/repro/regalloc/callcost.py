"""Call-cost directed register allocation (Lueh & Gross [8]), as the paper
configures it for Figure 11: "aggressive coalescing and a modified
call-cost directed register selection" — labeled **aggressive+volatility**.

Figure 3 phases: renumber → build → coalesce (aggressive) →
*benefit-driven* simplify (non-optimistic; lowest-priority node pushed
first so important nodes are popped, and colored, earlier) → preference
decision (per call site, only the R most valuable crossing live ranges
may claim non-volatile registers) → select (volatile vs. non-volatile vs.
memory by the benefit functions).

The benefit functions come from the shared appendix cost model:
``benefit_vol = Spill_Cost - 3*crossings`` and
``benefit_nonvol = Spill_Cost - 2``; a node whose best benefit is
negative prefers memory and is actively spilled.
"""

from __future__ import annotations

from repro.analysis.indexing import regs_in
from repro.core.costs import CALLEE_SAVE_COST, SAVE_RESTORE_COST, CostModel
from repro.errors import AllocationError
from repro.ir.values import PReg, VReg
from repro.profiling import phase
from repro.regalloc.base import Allocator, RoundContext, RoundOutcome
from repro.regalloc.coalesce import coalesce_aggressive
from repro.regalloc.igraph import AllocGraph
from repro.regalloc.select import forbidden_colors
from repro.regalloc.simplify import choose_spill_candidate

__all__ = ["CallCostAllocator"]


class CallCostAllocator(Allocator):
    """Lueh–Gross-style volatility-aware coloring over aggressive coalescing."""

    name = "aggressive+volatility"

    def allocate_round(self, ctx: RoundContext) -> RoundOutcome:
        outcome = RoundOutcome()
        costs = CostModel(ctx.func, ctx.machine, ctx.cfg, ctx.loops,
                          ctx.liveness, spill_costs=ctx.spill_costs)
        for rclass in ctx.classes():
            graph = ctx.graph(rclass)
            outcome.coalesced_count += coalesce_aggressive(graph)

            benefit_vol, benefit_nonvol = self._benefits(graph, costs)
            with phase("simplify"):
                stack = self._benefit_driven_simplify(
                    graph, benefit_vol, benefit_nonvol, outcome
                )
            outcome.alias.update(graph.alias)
            if outcome.spilled:
                continue  # Chaitin-style: spill code first, retry round

            forced_volatile = self._preference_decision(
                costs, graph, rclass, benefit_nonvol
            )
            with phase("select"):
                self._select(ctx, graph, rclass, stack, benefit_vol,
                             benefit_nonvol, forced_volatile, outcome)
        return outcome

    # ------------------------------------------------------------------

    def _benefits(
        self, graph: AllocGraph, costs: CostModel,
    ) -> tuple[dict[VReg, float], dict[VReg, float]]:
        """Per-representative benefits, summed over coalesced members.

        The 3.0/2.0 constants are the appendix save/restore and
        callee-save costs.
        """
        save_restore = float(SAVE_RESTORE_COST)
        callee_save = float(CALLEE_SAVE_COST)
        benefit_vol: dict[VReg, float] = {}
        benefit_nonvol: dict[VReg, float] = {}
        for node in graph.active_nodes():
            spill = cross = 0.0
            for member in graph.members_of(node):
                if isinstance(member, VReg):
                    spill += costs.spill_cost(member)
                    cross += costs.cross_freq(member)
            benefit_vol[node] = spill - save_restore * cross
            benefit_nonvol[node] = spill - callee_save
        return benefit_vol, benefit_nonvol

    def _benefit_driven_simplify(
        self,
        graph: AllocGraph,
        benefit_vol: dict[VReg, float],
        benefit_nonvol: dict[VReg, float],
        outcome: RoundOutcome,
    ) -> list[VReg]:
        def priority(node: VReg) -> float:
            return max(benefit_vol.get(node, 0.0),
                       benefit_nonvol.get(node, 0.0))

        stack: list[VReg] = []
        while graph.active:
            low = [n for n in graph.active_nodes()
                   if not graph.significant(n)]
            if low:
                node = min(low, key=lambda n: (priority(n), n.id))
                graph.remove(node)
                stack.append(node)
                continue
            candidate = choose_spill_candidate(graph, graph.active_nodes())
            graph.remove(candidate)
            for member in graph.members_of(candidate):
                if isinstance(member, VReg):
                    outcome.spilled.add(member)
        return stack

    def _preference_decision(
        self,
        costs: CostModel,
        graph: AllocGraph,
        rclass,
        benefit_nonvol: dict[VReg, float],
    ) -> set[VReg]:
        """Nodes that must not claim non-volatile registers.

        For each call, the live-across representatives beyond the R most
        valuable (R = number of non-volatile registers) are annotated to
        prefer volatile registers.
        """
        r = len(costs.machine.file(rclass).nonvolatile)
        regs = costs.index.regs
        forced: set[VReg] = set()
        for crossing in costs.call_crossings:
            reps = [w for w in {graph.find(w) for w in regs_in(regs, crossing)
                                if w.rclass is rclass}
                    if isinstance(w, VReg)]
            reps.sort(key=lambda w: (-benefit_nonvol.get(w, 0.0), w.id))
            forced.update(reps[r:])
        return forced

    def _select(
        self,
        ctx: RoundContext,
        graph: AllocGraph,
        rclass,
        stack: list[VReg],
        benefit_vol: dict[VReg, float],
        benefit_nonvol: dict[VReg, float],
        forced_volatile: set[VReg],
        outcome: RoundOutcome,
    ) -> None:
        regfile = ctx.machine.file(rclass)
        vol_order = sorted(regfile.volatile, key=lambda reg: reg.index)
        nonvol_order = sorted(regfile.nonvolatile, key=lambda reg: reg.index)
        for node in reversed(stack):
            forbidden = forbidden_colors(graph, node, outcome.assignment)
            free_vol = [c for c in vol_order if c not in forbidden]
            free_nonvol = [c for c in nonvol_order if c not in forbidden]
            b_vol = benefit_vol.get(node, 0.0)
            b_nonvol = benefit_nonvol.get(node, 0.0)
            if node in forced_volatile:
                b_nonvol = min(b_nonvol, b_vol)

            want_nonvol = b_nonvol > b_vol
            pools = ([free_nonvol, free_vol] if want_nonvol
                     else [free_vol, free_nonvol])
            best_benefit = max(b_vol, b_nonvol)
            if best_benefit < 0.0 and not _contains_no_spill(graph, node):
                # Prefers memory over any register: actively spill.
                for member in graph.members_of(node):
                    if isinstance(member, VReg):
                        outcome.spilled.add(member)
                continue
            pool = pools[0] or pools[1]
            if not pool:
                raise AllocationError(
                    f"{self.name}: non-optimistic stack node {node} "
                    f"found no color"
                )
            color = self._biased_choice(graph, node, pool, outcome)
            outcome.assignment[node] = color

    def _biased_choice(self, graph: AllocGraph, node: VReg,
                       pool: list[PReg], outcome: RoundOutcome) -> PReg:
        for partner in sorted(graph.copy_related(node),
                              key=lambda r: str(r)):
            color = partner if isinstance(partner, PReg) \
                else outcome.assignment.get(partner)
            if color in pool:
                outcome.biased_hits += 1
                return color
        return pool[0]


def _contains_no_spill(graph: AllocGraph, node: VReg) -> bool:
    return any(
        isinstance(m, VReg) and m.no_spill for m in graph.members_of(node)
    )

