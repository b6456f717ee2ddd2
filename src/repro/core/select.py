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

The selector runs on the coloring graph's dense ids.  Register sets
are bitmasks over the class's color list; per color ``c`` it keeps the
mask of nodes with a neighbor holding ``c`` (seeded from the physical
registers), and from it each undecided node's mask of colors its
neighbors have claimed, so availability is one ``&`` and a coloring
touches only the neighbors that newly lose the color.  Each node's
preference edges are indexed once per run into tuples over ids and
color positions; ids map back to registers only when the assignment
and the spill set are written.

The ready queue is a lazy max-heap keyed on ``(differential,
spill_cost, -id)``.  Each queued node caches its honorable asks as
``(strength, mask)`` pairs and the differential they give; an event
re-keys a queued node (pushes a refreshed generation-stamped entry)
only when it can change that node's key:

* a spill re-keys nothing — no free mask changes, and a spilled
  partner resolves no ask, exactly as an uncolored one did not;
* a coloring with register ``r`` always re-keys the node's RPG
  partners (an ask appears), and re-keys an interference neighbor only
  if ``r`` is the last volatile or the last non-volatile register of
  one of its asks — an ask's strength depends only on whether its mask
  meets each kind, and its honorability only on the mask being
  non-empty.  Other neighbors just shrink their ask masks in place, and
  neighbors that already lost ``r`` are untouched.

So the heap's newest entry per node always carries the key a rescan of
the ready set would compute at pick time, and each pick is O(log n)
amortized.  The linear scan it replaced, recomputing every differential
from the assignment, is the pick-by-pick oracle in ``tests/oracles.py``.

Interpretation notes (the paper leaves these open — see DESIGN.md):
a single honorable preference yields a differential equal to its own
strength (memory, at strength 0, is the implicit weakest); nodes with no
preferences rank last and tie-break on spill cost then id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.indexing import iter_bits
from repro.core.cpg import ColoringPrecedenceGraph
from repro.core.costs import CostModel
from repro.core.rpg import PrefKind, RegGroup, RegisterPreferenceGraph
from repro.errors import AllocationError
from repro.ir.values import PReg, VReg
from repro.regalloc.igraph import AllocGraph
from repro.profiling import phase
from repro.regalloc.select import order_colors_cached
from repro.regalloc.worklist import LazyMaxHeap
from repro.target.machine import RegisterFile, TargetMachine

__all__ = ["PreferenceSelector", "SelectionTrace"]

NEG_INF = float("-inf")
#: ``_color`` entries of nodes without a register
UNCOLORED = -1
SPILLED = -2


def _spread(asks: list[tuple[float, int]]) -> float:
    """Strength differential of a node's honorable ``(strength, mask)``
    asks: strongest minus weakest, a lone ask's own strength, or
    ``-inf`` when nothing is honorable."""
    if not asks:
        return NEG_INF
    if len(asks) == 1:
        return asks[0][0]
    strengths = [strength for strength, _mask in asks]
    return max(strengths) - min(strengths)


def _color_tables(colors: tuple[PReg, ...], regfile: RegisterFile,
                  policy: str) -> tuple:
    """Constants over color positions: each register's position, the
    volatile mask, the fallback order, and per preference kind the
    register bit an edge's source wants given its target's position
    (``fwd``) and the reverse (``rev``)."""
    pos = {c: i for i, c in enumerate(colors)}
    by_index = {c.index: 1 << i for i, c in enumerate(colors)}
    same = [1 << i for i in range(len(colors))]
    up = [by_index.get(c.index + 1, 0) for c in colors]
    down = [by_index.get(c.index - 1, 0) for c in colors]
    fwd = {PrefKind.COALESCE: same, PrefKind.SEQ_NEXT: up,
           PrefKind.SEQ_PREV: down}
    rev = {PrefKind.COALESCE: same, PrefKind.SEQ_NEXT: down,
           PrefKind.SEQ_PREV: up}
    vol = sum(same[i] for i, c in enumerate(colors)
              if regfile.is_volatile(c))
    fallback = tuple(pos[c] for c in order_colors_cached(colors, regfile,
                                                         policy))
    return pos, vol, fallback, fwd, rev


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
    """One run of the Section 5.3 algorithm over one register class.

    Nodes are ``graph``'s dense ids throughout; the results are written
    to ``assignment`` and ``spilled`` as registers.
    """

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

    def __post_init__(self) -> None:
        graph = self.graph
        colors = self._colors = graph.colors
        pos, vol, self._fallback, fwd, rev = _color_tables(
            colors, self.regfile, self.fallback_policy)
        self._all_mask = (1 << len(colors)) - 1
        self._vol_mask = vol
        self._nonvol_mask = self._all_mask & ~vol
        n = len(graph.nodes)
        live = self.cpg.live
        #: undecided live ranges (neither colored nor spilled)
        self._pending = live
        #: per id: color position, ``UNCOLORED`` or ``SPILLED``
        self._color = [UNCOLORED] * n
        #: per color position: mask of nodes with a neighbor holding it
        near = self._near = [0] * len(colors)
        for j in iter_bits(graph.precolored):
            c = pos.get(graph.nodes[j])
            if c is not None:
                near[c] |= graph.rows[j]
        #: per undecided node: mask of colors its neighbors hold
        taken = self._taken = [0] * n
        for c, mask in enumerate(near):
            for j in iter_bits(mask & live):
                taken[j] |= 1 << c
        #: per queued node: its honorable asks as ``(strength, mask)``,
        #: masks kept current, and the differential they give; both are
        #: dropped only by events that can change the differential
        self._asks: list[list | None] = [None] * n
        self._diff: list[float | None] = [None] * n
        self._index_prefs(pos, fwd, rev)
        #: lazy max-heap ready queue, keyed by :meth:`_pick_key`
        self._ready = LazyMaxHeap()

    def _index_prefs(self, pos: dict, fwd: dict, rev: dict) -> None:
        """Each live range's preference edges as id/position tuples
        ``(vol, nonvol, fixed_mask, partner, ask_bits, defer_bits,
        incoming)``, outgoing edges first, each side in RPG order.

        An edge to a register or group asks for ``fixed_mask``
        (``partner`` is -1); an edge with a live-range ``partner`` asks
        for ``ask_bits[c]`` once the partner holds position ``c``, and
        while the partner is undecided, taking ``c`` leaves it
        ``defer_bits[c]``.  The strength of an incoming ask follows the
        partner's register, every other one the asked register.
        """
        graph = self.graph
        ids = graph.ids
        regfile = self.regfile
        none = [0] * len(self._colors)
        group_masks: dict[RegGroup, int] = {}
        prefs: list[list] = [[]] * len(graph.nodes)
        self._partners = partners = [0] * len(graph.nodes)
        self._cost = cost = [0.0] * len(graph.nodes)
        spill_cost = self.costs.spill_cost
        for i in iter_bits(self.cpg.live):
            node = graph.nodes[i]
            cost[i] = spill_cost(node)
            entries = []
            for edge in self.rpg.edges_from(node):
                target = edge.target
                strength = edge.strength
                if isinstance(target, VReg):
                    j = ids[target]
                    partners[i] |= 1 << j
                    entries.append((strength.vol, strength.nonvol, 0, j,
                                    fwd.get(edge.kind, none),
                                    rev.get(edge.kind, none), False))
                    continue
                if isinstance(target, RegGroup):
                    mask = group_masks.get(target)
                    if mask is None:
                        mask = group_masks[target] = sum(
                            1 << pos[r] for r in target.regs if r in pos)
                elif edge.kind is PrefKind.COALESCE:
                    mask = 1 << pos[target] if target in pos else 0
                else:
                    wanted = (regfile.next_reg(target)
                              if edge.kind is PrefKind.SEQ_NEXT
                              else regfile.prev_reg(target)
                              if edge.kind is PrefKind.SEQ_PREV else None)
                    mask = 1 << pos[wanted] if wanted in pos else 0
                if mask:
                    entries.append((strength.vol, strength.nonvol, mask,
                                    -1, none, none, False))
            for edge in self.rpg.edges_to(node):
                j = ids[edge.src]
                partners[i] |= 1 << j
                entries.append((edge.strength.vol, edge.strength.nonvol, 0,
                                j, rev.get(edge.kind, none),
                                fwd.get(edge.kind, none), True))
            prefs[i] = entries
        self._prefs = prefs

    # ------------------------------------------------------------------

    def run(self) -> None:
        indegree = list(map(int.bit_count, self.cpg.pred))
        ready = self._ready
        for i in iter_bits(self.cpg.live):
            if not indegree[i]:
                ready.push(i, self._pick_key(i))

        succ = self.cpg.succ
        with phase("select"):
            while ready:
                with phase("choose"):
                    node = self._next_node()
                with phase("color"):
                    self._color_node(node)
                for j in iter_bits(succ[node]):
                    indegree[j] -= 1
                    if not indegree[j]:
                        ready.push(j, self._pick_key(j))

    # ------------------------------------------------------------------
    # step 2-3: node choice

    def _next_node(self) -> int:
        """The ready node with the largest :meth:`_pick_key`."""
        return self._ready.pop()

    def _pick_key(self, node: int) -> tuple:
        """The ready-queue ordering key: differential, then spill cost,
        then lowest vreg id (``-id``)."""
        differential = self._diff[node]
        if differential is None:
            asks = self._asks[node] = self._usable_asks(
                node, self._free_mask(node))
            differential = self._diff[node] = _spread(asks)
        return (differential, self._cost[node], -self.graph.nodes[node].id)

    def _free_mask(self, node: int) -> int:
        """Mask of colors no (colored or physical) neighbor holds."""
        return self._all_mask & ~self._taken[node]

    def _usable_asks(self, node: int,
                     avail_mask: int) -> list[tuple[float, int]]:
        """Steps 2.1/2.2 as concrete *asks*: ``(strength, register mask)``.

        Outgoing edges whose target is colored (or physical / a group)
        ask directly.  Incoming live-range edges whose *source* is
        already colored also ask — that is the deferred coalescence /
        pairing being resolved from the other end.  Edges to undecided
        partners are deferred (revisited in step 4.3), and unhonorable
        asks (empty intersection with the available mask) are
        eliminated.
        """
        asks: list[tuple[float, int]] = []
        color = self._color
        vol_mask = self._vol_mask
        nonvol_mask = self._nonvol_mask
        for vol, nonvol, mask, partner, ask_bits, _defer, incoming \
                in self._prefs[node]:
            if partner >= 0:
                c = color[partner]
                if c < 0:
                    continue
                if incoming:
                    mask = ask_bits[c] & avail_mask
                    if mask:
                        asks.append((vol if vol_mask >> c & 1 else nonvol,
                                     mask))
                    continue
                mask = ask_bits[c]
            mask &= avail_mask
            if not mask:
                continue
            # Best realized strength over the registers of the ask.
            strength = vol if mask & vol_mask else NEG_INF
            if mask & nonvol_mask and nonvol > strength:
                strength = nonvol
            asks.append((strength, mask))
        return asks

    # ------------------------------------------------------------------
    # step 4: register choice

    def _color_node(self, node: int) -> None:
        reg = self.graph.nodes[node]
        free = self._free_mask(node)
        # The ready queue keyed ``node``, so its asks are cached, current.
        asks = self._asks[node]
        self._asks[node] = self._diff[node] = None
        self._pending &= ~(1 << node)
        if not free:
            self._spill(node, reason="no register available")
            return
        if self.active_memory_spill and not reg.no_spill \
                and self._prefers_memory(
                    reg, free, [strength for strength, _mask in asks]
                ):
            # Section 5.4: strongest preference is memory.
            self._spill(node, reason="prefers memory")
            return

        candidates = free
        for _strength, mask in sorted(asks, key=lambda a: -a[0]):
            screened = candidates & mask
            if screened:
                candidates = screened
                self.honored_prefs += 1

        candidates = self._respect_deferred(node, candidates)
        c = next(c for c in self._fallback if candidates >> c & 1)
        self._color[node] = c
        color = self.assignment[reg] = self._colors[c]
        self._after_decision(node, c)
        if self.trace is not None:
            self.trace.note(f"{reg} -> {color} (of {free.bit_count()} free)")

    def _after_decision(self, node: int, c: int) -> None:
        """Re-key the queued nodes whose key coloring ``node`` with
        position ``c`` can change (a spill changes none; see the module
        docstring for the argument).

        Every undecided neighbor that did not yet border ``c`` loses it.
        A cached neighbor's asks lose it too, in place, unless it was the
        last register of its kind (volatile or not) in some ask: that can
        change the ask's strength or honorability, so the node's cache
        is dropped and rebuilt.  RPG partners on either side gain an
        ask and are always rebuilt.  Each stale node is re-keyed once,
        so the heap's newest entry per node always carries the key a
        rescan of the ready set would compute at pick time.
        """
        bit = 1 << c
        kind = self._vol_mask if bit & self._vol_mask else self._nonvol_mask
        row = self.graph.rows[node]
        near = self._near
        rest = row & ~near[c] & self._pending
        near[c] |= row
        taken = self._taken
        asks_of = self._asks
        stale = self._partners[node]
        while rest:
            low = rest & -rest
            rest ^= low
            n = low.bit_length() - 1
            taken[n] |= bit
            asks = asks_of[n]
            if asks is None:
                continue
            for i, (strength, ask_mask) in enumerate(asks):
                if ask_mask & bit:
                    ask_mask &= ~bit
                    if not ask_mask & kind:
                        stale |= low
                        break
                    asks[i] = (strength, ask_mask)
        diff = self._diff
        ready = self._ready
        for n in iter_bits(stale):
            diff[n] = asks_of[n] = None
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

    def _respect_deferred(self, node: int, candidates: int) -> int:
        """Step 4.3: keep registers that leave deferred partners a chance."""
        color = self._color
        for _vol, _nonvol, _mask, partner, _ask, defer_bits, _incoming \
                in self._prefs[node]:
            if partner < 0 or color[partner] != UNCOLORED:
                continue
            partner_free = self._free_mask(partner)
            keep = 0
            for c in iter_bits(candidates):
                if defer_bits[c] & partner_free:
                    keep |= 1 << c
            if keep:
                candidates = keep
        return candidates

    def _spill(self, node: int, reason: str) -> None:
        reg = self.graph.nodes[node]
        if reg not in self.optimistic and reason == "no register available":
            raise AllocationError(
                f"CPG colorability violated: non-optimistic node {reg} "
                f"has no free register"
            )
        self._color[node] = SPILLED
        self.spilled.add(reg)
        if self.trace is not None:
            self.trace.note(f"{reg} spilled ({reason})")
