"""Integrated, preference-directed register selection (Section 5.3).

The selector iterates two moves until the CPG is exhausted:

* among the *ready-to-go* nodes (no unprocessed CPG predecessor), pick
  the node with the largest strength differential between its strongest
  and weakest still-honorable preferences (step 2–3) — the node with the
  most to lose goes first;
* give that node a register by screening the available set through its
  preferences from strongest to weakest (step 4.2), then dropping
  registers that would block a *deferred* live-range-to-live-range
  preference — one whose partner is not colored yet — when alternatives
  remain (step 4.3).

Spills happen inside the same loop: a node with no free register is
spilled (it must be an optimistic push; the CPG certifies the rest), and
a node whose preferences are all weaker than staying in memory
(every ``Str < 0``) is *actively* spilled, which is how the paper avoids
the Lueh–Gross objection to optimistic coloring (Section 5.4).

Register sets are bitmasks over the class's color list: each node keeps
an incrementally-maintained mask of colors its neighbors have claimed,
so availability is one ``&`` instead of a neighbor scan, and preference
screening intersects masks.  Differentials are cached and recomputed
only for the nodes a coloring/spill event can affect (its interference
neighbors and RPG partners) — the dominant cost of the naive selector
was re-deriving every queued node's differential at every pick.

The ready queue itself is a lazy max-heap keyed on ``(differential,
spill_cost, -id)``: ``_after_decision``'s invalidation set — which is
exactly the set of nodes whose key an event can change — pushes
refreshed generation-stamped entries instead of merely dropping the
cached differential, so each pick is O(log n) amortized instead of a
linear queue scan.  The linear scan it replaced is the pick-by-pick
oracle in ``tests/oracles.py``.

Interpretation notes (the paper leaves these open — see DESIGN.md):
a single honorable preference yields a differential equal to its own
strength (memory, at strength 0, is the implicit weakest); nodes with no
preferences rank last and tie-break on spill cost then id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.indexing import iter_bits
from repro.core.cpg import BOTTOM, TOP, ColoringPrecedenceGraph
from repro.core.costs import CostModel
from repro.core.rpg import (
    PrefEdge,
    PrefKind,
    RegGroup,
    RegisterPreferenceGraph,
)
from repro.errors import AllocationError
from repro.ir.values import PReg, VReg
from repro.policy import DEFAULT_POLICY, Policy
from repro.regalloc.igraph import AllocGraph
from repro.profiling import phase
from repro.regalloc.select import order_colors_cached
from repro.regalloc.worklist import LazyMaxHeap
from repro.target.machine import RegisterFile, TargetMachine

__all__ = ["PreferenceSelector", "SelectionTrace"]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class _Ask:
    """One evaluable preference: a register mask and its realized strength."""

    mask: int
    strength: float
    edge: PrefEdge


@dataclass(eq=False)
class SelectionTrace:
    """Step-by-step record of the selection, for tests and examples."""

    steps: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.steps.append(message)

    def __str__(self) -> str:
        return "\n".join(self.steps)


@dataclass(eq=False)
class PreferenceSelector:
    """One run of the Section 5.3 algorithm over one register class."""

    graph: AllocGraph
    rpg: RegisterPreferenceGraph
    cpg: ColoringPrecedenceGraph
    machine: TargetMachine
    regfile: RegisterFile
    costs: CostModel
    optimistic: set[VReg]
    trace: SelectionTrace | None = None

    #: register order when preferences leave several candidates (the
    #: paper's coalescing-only configurations use non-volatile first)
    fallback_policy: str = "nonvolatile_first"
    #: Section 5.4's active spilling of memory-preferring nodes; enabled
    #: with the volatility preferences (it is their spill-side twin) and
    #: off in the only-coalescing ablation
    active_memory_spill: bool = True

    assignment: dict[VReg, PReg] = field(default_factory=dict)
    spilled: set[VReg] = field(default_factory=set)
    honored_prefs: int = 0
    #: heuristic knobs; only the ``select_*_weight`` fields matter here.
    #: The all-1.0 default takes the historical unweighted key path,
    #: keeping pick order (and heap entries) byte-identical.
    policy: Policy = DEFAULT_POLICY

    def __post_init__(self) -> None:
        if (self.policy.select_differential_weight == 1.0
                and self.policy.select_spill_cost_weight == 1.0
                and self.policy.select_id_weight == 1.0):
            self._key_weights = None
        else:
            self._key_weights = (
                self.policy.select_differential_weight,
                self.policy.select_spill_cost_weight,
                self.policy.select_id_weight,
            )
        colors = self.graph.colors
        self._colors = colors
        self._color_bit: dict[PReg, int] = {
            c: 1 << i for i, c in enumerate(colors)
        }
        self._all_mask = (1 << len(colors)) - 1
        vol = 0
        for i, c in enumerate(colors):
            if self.machine.is_volatile(c):
                vol |= 1 << i
        self._vol_mask = vol
        self._nonvol_mask = self._all_mask & ~vol
        # Memoized: the fallback order depends only on (regfile, colors,
        # policy), yet a selector is instantiated per class per round.
        self._fallback = list(
            order_colors_cached(colors, self.regfile, self.fallback_policy)
        )
        #: per-node mask of colors claimed by neighbors (lazily seeded
        #: from the current assignment, then maintained incrementally)
        self._taken: dict[VReg, int] = {}
        #: cached differentials, invalidated by affecting events only
        self._diff_cache: dict[VReg, float] = {}
        self._group_masks: dict[RegGroup, int] = {}
        #: lazy max-heap ready queue, keyed by :meth:`_pick_key`
        self._ready = LazyMaxHeap()

    # ------------------------------------------------------------------

    def run(self) -> None:
        indegree = {
            node: len({p for p in preds if p != TOP})
            for node, preds in self.cpg.preds.items()
            if isinstance(node, VReg)
        }
        ready = self._ready
        for node, degree in indegree.items():
            if degree == 0:
                ready.push(node, self._pick_key(node))

        with phase("select"):
            while ready:
                with phase("choose"):
                    node = self._next_node()
                with phase("color"):
                    self._color_node(node)
                for succ in self.cpg.succs.get(node, ()):
                    if succ == BOTTOM or not isinstance(succ, VReg):
                        continue
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        ready.push(succ, self._pick_key(succ))

    # ------------------------------------------------------------------
    # step 2-3: node choice

    def _next_node(self) -> VReg:
        """The ready node with the largest :meth:`_pick_key`."""
        return self._ready.pop()

    def _pick_key(self, node: VReg) -> tuple:
        """The ready-queue ordering key: differential, then spill cost,
        then lowest id (``-id``), optionally policy-weighted."""
        differential = self._diff_cache.get(node)
        if differential is None:
            differential = self._diff_cache[node] = self._differential(node)
        weights = self._key_weights
        if weights is None:
            return (differential, self.costs.spill_cost(node), -node.id)
        wd, ws, wi = weights
        return (wd * differential, ws * self.costs.spill_cost(node),
                wi * -node.id)

    def _differential(self, node: VReg) -> float:
        honorable = [
            ask.strength
            for ask in self._usable_asks(node, self._free_mask(node))
        ]
        if not honorable:
            return NEG_INF
        if len(honorable) == 1:
            return honorable[0]
        return max(honorable) - min(honorable)

    def _free_mask(self, node: VReg) -> int:
        """Mask of colors no (colored or physical) neighbor holds."""
        taken = self._taken.get(node)
        if taken is None:
            taken = 0
            color_bit = self._color_bit
            assignment = self.assignment
            for n in self.graph.all_neighbors(node):
                if isinstance(n, PReg):
                    taken |= color_bit.get(n, 0)
                else:
                    c = assignment.get(n)
                    if c is not None:
                        taken |= color_bit[c]
            self._taken[node] = taken
        return self._all_mask & ~taken

    def _available(self, node: VReg) -> list[PReg]:
        colors = self._colors
        return [colors[i] for i in iter_bits(self._free_mask(node))]

    def _group_mask(self, group: RegGroup) -> int:
        mask = self._group_masks.get(group)
        if mask is None:
            color_bit = self._color_bit
            mask = 0
            for reg in group.regs:
                mask |= color_bit.get(reg, 0)
            self._group_masks[group] = mask
        return mask

    def _usable_asks(self, node: VReg, avail_mask: int) -> list[_Ask]:
        """Steps 2.1/2.2 as concrete *asks*: (register mask, strength).

        Outgoing edges whose target is colored (or physical / a group)
        ask directly.  Incoming live-range edges whose *source* is
        already colored also ask — that is the deferred coalescence /
        pairing being resolved from the other end.  Unhonorable asks
        (empty intersection with the available mask) are eliminated.
        """
        asks: list[_Ask] = []
        for edge in self.rpg.edges_from(node):
            if self._unresolved(edge.target):
                continue  # step 2.2: deferred, revisited in step 4.3
            ask = self._ask_of_outgoing(edge, avail_mask)
            if ask is not None:
                asks.append(ask)
        for edge in self.rpg.edges_to(node):
            source_color = self.assignment.get(edge.src)
            if source_color is None:
                continue
            ask = self._ask_of_incoming(edge, source_color, avail_mask)
            if ask is not None:
                asks.append(ask)
        return asks

    def _unresolved(self, target) -> bool:
        """A live-range target not yet colored (and not spilled)."""
        return (
            isinstance(target, VReg)
            and target not in self.assignment
            and target not in self.spilled
        )

    def _strength_for_mask(self, edge: PrefEdge, mask: int) -> float:
        """Best realized strength over the registers of ``mask``."""
        strength = NEG_INF
        if mask & self._vol_mask:
            strength = edge.strength.vol
        if mask & self._nonvol_mask:
            nonvol = edge.strength.nonvol
            if nonvol > strength:
                strength = nonvol
        return strength

    def _ask_of_outgoing(self, edge: PrefEdge,
                         avail_mask: int) -> "_Ask | None":
        if isinstance(edge.target, RegGroup):
            mask = avail_mask & self._group_mask(edge.target)
            if not mask:
                return None
            return _Ask(mask, self._strength_for_mask(edge, mask), edge)
        wanted = self._resolve_target_register(edge.kind, edge.target)
        if wanted is None:
            return None
        bit = self._color_bit.get(wanted, 0)
        if not bit & avail_mask:
            return None
        return _Ask(bit, self._strength_for_mask(edge, bit), edge)

    def _ask_of_incoming(self, edge: PrefEdge, source_color: PReg,
                         avail_mask: int) -> "_Ask | None":
        """What an already-colored source wants *this* node to take."""
        if edge.kind is PrefKind.COALESCE:
            wanted: PReg | None = source_color
        elif edge.kind is PrefKind.SEQ_NEXT:
            # The source wanted (this node's register) + 1 and holds
            # source_color, so this node must take source_color - 1.
            wanted = self.regfile.prev_reg(source_color)
        elif edge.kind is PrefKind.SEQ_PREV:
            wanted = self.regfile.next_reg(source_color)
        else:
            return None
        if wanted is None:
            return None
        bit = self._color_bit.get(wanted, 0)
        if not bit & avail_mask:
            return None
        source_bit = self._color_bit.get(source_color, 0)
        return _Ask(bit, self._strength_for_mask(edge, source_bit), edge)

    def _resolve_target_register(self, kind: PrefKind,
                                 target) -> PReg | None:
        """The concrete register an outgoing edge asks for, if fixed."""
        if isinstance(target, VReg):
            target = self.assignment.get(target)
            if target is None:
                return None
        if not isinstance(target, PReg):
            return None
        if kind is PrefKind.COALESCE:
            return target
        if kind is PrefKind.SEQ_NEXT:
            return self.regfile.next_reg(target)
        if kind is PrefKind.SEQ_PREV:
            return self.regfile.prev_reg(target)
        return None

    # ------------------------------------------------------------------
    # step 4: register choice

    def _color_node(self, node: VReg) -> None:
        free = self._free_mask(node)
        if not free:
            self._spill(node, reason="no register available")
            self._after_decision(node, None)
            return
        asks = self._usable_asks(node, free)
        if self.active_memory_spill and not node.no_spill \
                and self._prefers_memory(
                    node, free, [a.strength for a in asks]
                ):
            # Section 5.4: strongest preference is memory.
            self._spill(node, reason="prefers memory")
            self._after_decision(node, None)
            return

        candidates = free
        for ask in sorted(asks, key=lambda a: -a.strength):
            screened = candidates & ask.mask
            if screened:
                candidates = screened
                self.honored_prefs += 1

        candidates = self._respect_deferred(node, candidates)
        color_bit = self._color_bit
        color = next(
            c for c in self._fallback if color_bit[c] & candidates
        )
        self.assignment[node] = color
        self._after_decision(node, color)
        if self.trace is not None:
            self.trace.note(f"{node} -> {color} (of {free.bit_count()} free)")

    def _after_decision(self, node: VReg, color: PReg | None) -> None:
        """Incremental bookkeeping after ``node`` was colored or spilled.

        Neighbors lose ``color`` from their free mask; the nodes whose
        differential the event can change — interference neighbors and
        RPG partners on either side — drop out of the cache.  The same
        (exact) invalidation set is then re-keyed: queued members get a
        refreshed heap entry, superseding their stale one, so the heap's
        newest entry per node always carries the key a rescan of the
        ready set would compute at pick time.
        """
        diff_cache = self._diff_cache
        diff_cache.pop(node, None)
        taken = self._taken
        bit = self._color_bit[color] if color is not None else 0
        affected: list[VReg] = []
        for n in self.graph.all_neighbors(node):
            if bit and n in taken:
                taken[n] |= bit
            diff_cache.pop(n, None)
            affected.append(n)
        for edge in self.rpg.edges_to(node):
            diff_cache.pop(edge.src, None)
            affected.append(edge.src)
        for edge in self.rpg.edges_from(node):
            target = edge.target
            if isinstance(target, VReg):
                diff_cache.pop(target, None)
                affected.append(target)
        ready = self._ready
        for n in affected:
            if n in ready:
                ready.push(n, self._pick_key(n))

    def _prefers_memory(self, node: VReg, free: int,
                        pref_strengths: list[float]) -> bool:
        """Is the strongest preference "be located in memory"?

        Memory sits at strength 0.  The comparison must include the
        *placement* strengths the available registers offer even when the
        RPG carries no volatility edges (the only-coalescing ablation):
        failing to honor a negative-strength coalesce edge does not mean
        memory wins — a plain non-volatile placement may still beat it.
        """
        best = max(pref_strengths, default=NEG_INF)
        if free & self._vol_mask:
            best = max(best, self.costs.strength_volatile(node))
        if free & self._nonvol_mask:
            best = max(best, self.costs.strength_nonvolatile(node))
        return best < 0.0

    def _respect_deferred(self, node: VReg, candidates: int) -> int:
        """Step 4.3: keep registers that leave deferred partners a chance."""
        colors = self._colors
        color_bit = self._color_bit
        for edge in self.rpg.edges_from(node):
            if not self._unresolved(edge.target):
                continue
            partner = edge.target
            assert isinstance(partner, VReg)
            partner_free = self._free_mask(partner)
            keep = 0
            for i in iter_bits(candidates):
                mine = self._partner_register(edge.kind, colors[i],
                                              outgoing=True)
                if mine is not None and color_bit.get(mine, 0) & partner_free:
                    keep |= 1 << i
            if keep:
                candidates = keep
        for edge in self.rpg.edges_to(node):
            if not self._unresolved(edge.src):
                continue
            partner_free = self._free_mask(edge.src)
            keep = 0
            for i in iter_bits(candidates):
                mine = self._partner_register(edge.kind, colors[i],
                                              outgoing=False)
                if mine is not None and color_bit.get(mine, 0) & partner_free:
                    keep |= 1 << i
            if keep:
                candidates = keep
        return candidates

    def _partner_register(self, kind: PrefKind, mine: PReg,
                          outgoing: bool) -> PReg | None:
        """Register the deferred partner must later take if I pick ``mine``.

        ``outgoing``: the deferred edge is mine (I want something relative
        to the partner); otherwise the partner wants something relative to
        me and the adjacency flips.
        """
        if kind is PrefKind.COALESCE:
            return mine
        if kind is PrefKind.SEQ_NEXT:
            # Outgoing: I want partner+1 => partner takes mine-1.
            # Incoming: partner wants mine+1.
            return self.regfile.prev_reg(mine) if outgoing \
                else self.regfile.next_reg(mine)
        if kind is PrefKind.SEQ_PREV:
            return self.regfile.next_reg(mine) if outgoing \
                else self.regfile.prev_reg(mine)
        return None

    def _spill(self, node: VReg, reason: str) -> None:
        if node not in self.optimistic and reason == "no register available":
            raise AllocationError(
                f"CPG colorability violated: non-optimistic node {node} "
                f"has no free register"
            )
        self.spilled.add(node)
        if self.trace is not None:
            self.trace.note(f"{node} spilled ({reason})")
