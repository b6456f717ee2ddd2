"""The paper's full coloring system (Section 5.4, Figure 8).

    renumber → build (interference graph + Register Preference Graph) →
    simplify (optimistic) → build Coloring Precedence Graph →
    integrated select (spill + coalesce + preference resolution)

There is deliberately *no* coalesce phase: "We also sacrifice the
positive aspect of coalescing to improve the colorability.  However
optimistic simplification can compensate for this."  Coalescing happens
as deferred same-register selection driven by the RPG's coalesce edges.

``PreferenceDirectedAllocator(PreferenceConfig.only_coalescing())`` is
the Section 6.1 ablation ("only coalescing"); the default configuration
is "full preferences".
"""

from __future__ import annotations

from repro.core.costs import CostModel
from repro.core.cpg import build_cpg, chain_cpg
from repro.core.postpass import aggressive_post_coalesce
from repro.core.prefs import PreferenceConfig, build_rpg
from repro.core.select import PreferenceSelector, SelectionTrace
from repro.ir.values import VReg
from repro.profiling import phase
from repro.regalloc.base import Allocator, RoundContext, RoundOutcome
from repro.regalloc.simplify import simplify

__all__ = ["PreferenceDirectedAllocator"]


class PreferenceDirectedAllocator(Allocator):
    """Preference-directed graph coloring (Koseki–Komatsu–Nakatani)."""

    def __init__(self, config: PreferenceConfig | None = None,
                 name: str | None = None, keep_trace: bool = False,
                 use_cpg: bool = True, post_coalesce: bool = False):
        self.config = config or PreferenceConfig.full()
        self.name = name or (
            "full-preferences" if self.config.volatility else "only-coalescing"
        )
        self.keep_trace = keep_trace
        #: ablation hook: with ``use_cpg=False`` the selector follows the
        #: plain simplification stack (a chain-shaped precedence graph),
        #: isolating what the partial order itself contributes
        self.use_cpg = use_cpg
        #: the paper's Section 6.1 suggested extension: a conservative
        #: aggressive-coalescing pass over the finished assignment
        self.post_coalesce = post_coalesce
        self.last_trace: SelectionTrace | None = None

    def config_key(self) -> tuple:
        # ``last_trace`` is per-run output, not configuration.
        return (type(self).__qualname__, self.name, self.config,
                self.keep_trace, self.use_cpg, self.post_coalesce)

    def allocate_round(self, ctx: RoundContext) -> RoundOutcome:
        outcome = RoundOutcome()
        with phase("build-RPG"):
            costs = CostModel(ctx.func, ctx.machine, ctx.cfg, ctx.loops,
                              ctx.liveness, spill_costs=ctx.spill_costs)
            rpg = build_rpg(ctx.func, ctx.machine, costs, self.config)
        trace = SelectionTrace() if self.keep_trace else None

        for rclass in ctx.classes():
            graph = ctx.graph(rclass)
            wig = graph.active
            simplification = simplify(graph, optimistic=True)
            with phase("CPG"):
                if self.use_cpg:
                    cpg = build_cpg(graph, wig, simplification)
                else:
                    cpg = chain_cpg(graph, simplification.select_order)
            selector = PreferenceSelector(
                graph=graph,
                rpg=rpg,
                cpg=cpg,
                machine=ctx.machine,
                regfile=ctx.machine.file(rclass),
                costs=costs,
                optimistic=simplification.optimistic,
                trace=trace,
                active_memory_spill=self.config.volatility,
            )
            selector.run()
            if self.post_coalesce:
                outcome.coalesced_count += aggressive_post_coalesce(
                    graph, rpg, ctx.machine, costs, selector.assignment,
                    selector.spilled,
                )
            outcome.assignment.update(selector.assignment)
            outcome.biased_hits += selector.honored_prefs
            for node in selector.spilled:
                if isinstance(node, VReg):
                    outcome.spilled.add(node)
        self.last_trace = trace
        return outcome

