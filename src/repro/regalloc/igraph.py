"""The mutable coloring graph shared by all allocator variants.

One :class:`AllocGraph` is built per register class and allocation round
from the function-level :class:`~repro.analysis.interference.InterferenceGraph`.
It supports the operations the Chaitin-family algorithms need:

* *removal* (simplification) with incremental degree maintenance,
* *coalescing* via union-find aliases and adjacency merging, with enough
  bookkeeping to undo (Park–Moon needs the primitive members),
* *precolored* physical-register nodes of effectively infinite degree.

Virtual nodes are the webs produced by renumbering; physical nodes are the
target's registers of the class (all of them, so the color set is total).

Nodes are the dense ids of the function's register index: the adjacency
is the interference graph's int rows (bit ``j`` of ``rows[i]`` is the
edge ``i``–``j``), the active set is an int mask and degrees are a list
indexed by id.  The rows are shared with the interference graph until
the first ``add_edge``/``merge``, which copies them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.indexing import iter_bits, regs_in
from repro.analysis.interference import InterferenceGraph
from repro.errors import AllocationError
from repro.ir.instructions import Move
from repro.ir.values import PReg, RegClass, Register, VReg
from repro.target.machine import TargetMachine

__all__ = ["AllocGraph", "build_alloc_graph"]

INFINITE_DEGREE = 1 << 30


@dataclass(eq=False)
class AllocGraph:
    """Coloring graph over one register class."""

    rclass: RegClass
    k: int
    colors: tuple[PReg, ...]
    #: dense id -> register and back (the function's register index;
    #: a register first named by ``add_edge``/``merge`` gets the next id)
    nodes: list[Register] = field(default_factory=list)
    ids: dict[Register, int] = field(default_factory=dict)
    #: adjacency rows over dense ids (grow under coalescing)
    rows: list[int] = field(default_factory=list)
    #: mask of the nodes still in the graph (vregs only)
    active: int = 0
    #: mask of the physical registers (always present, infinite degree)
    precolored: int = 0
    #: current degree of each active vreg w.r.t. active ∪ precolored
    deg: list[int] = field(default_factory=list)
    #: move instructions, per node, for copy-relatedness queries
    moves_of: dict[Register, list[Move]] = field(default_factory=dict)
    moves: list[Move] = field(default_factory=list)
    #: union-find alias map from coalescing (member -> representative)
    alias: dict[VReg, Register] = field(default_factory=dict)
    #: representative -> all coalesced members (including itself)
    members: dict[Register, set[Register]] = field(default_factory=dict)
    spill_costs: dict[VReg, float] = field(default_factory=dict)
    #: degree-change notification hook: called as ``listener(node,
    #: new_degree)`` after any active vreg's degree changes (removal,
    #: coalescing, or edge insertion).  At most one listener; the
    #: simplify worklist attaches for the duration of its run so
    #: low-degree crossings are event-driven instead of rescans (see
    #: ``repro.regalloc.worklist``).
    degree_listener: object | None = field(default=None, repr=False)
    #: ``nodes``/``ids``/``rows`` still belong to the interference graph
    shared: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------
    # aliases

    def find(self, node: Register) -> Register:
        """Representative of ``node`` after coalescing."""
        while isinstance(node, VReg) and node in self.alias:
            node = self.alias[node]
        return node

    def members_of(self, node: Register) -> set[Register]:
        return self.members.get(node, {node})

    # ------------------------------------------------------------------
    # structure queries

    def row(self, node: Register) -> int:
        """``node``'s adjacency mask (0 for a register with no id)."""
        i = self.ids.get(node)
        return 0 if i is None else self.rows[i]

    def active_nodes(self) -> list[VReg]:
        return regs_in(self.nodes, self.active)

    def is_active(self, node: Register) -> bool:
        i = self.ids.get(node)
        return i is not None and bool(self.active >> i & 1)

    def degree(self, node: Register) -> int:
        if isinstance(node, PReg):
            return INFINITE_DEGREE
        return self.deg[self.ids[node]]

    def neighbors(self, node: Register) -> set[Register]:
        """Active (or precolored) neighbors of ``node``."""
        return set(regs_in(self.nodes, self.row(node)
                           & (self.active | self.precolored)))

    def all_neighbors(self, node: Register) -> set[Register]:
        """Neighbors including removed ones (used by select/CPG replay)."""
        return set(regs_in(self.nodes, self.row(node)))

    def interferes(self, a: Register, b: Register) -> bool:
        if isinstance(a, PReg) and isinstance(b, PReg):
            return a != b
        j = self.ids.get(b)
        return j is not None and bool(self.row(a) >> j & 1)

    def significant(self, node: Register) -> bool:
        """Degree >= K (Briggs's 'significant-degree' test)."""
        return self.degree(node) >= self.k

    def spill_cost(self, node: VReg) -> float:
        if node.no_spill or any(
            isinstance(m, VReg) and m.no_spill for m in self.members_of(node)
        ):
            return float("inf")
        return self.spill_costs.get(node, 1.0)

    # ------------------------------------------------------------------
    # mutation

    def _id(self, node: Register) -> int:
        """``node``'s id, appending a fresh edgeless node on first sight
        (after taking private copies of the shared structures)."""
        if self.shared:
            self.nodes = list(self.nodes)
            self.ids = dict(self.ids)
            self.rows = list(self.rows)
            self.shared = False
        i = self.ids.get(node)
        if i is None:
            i = self.ids[node] = len(self.nodes)
            self.nodes.append(node)
            self.rows.append(0)
            self.deg.append(0)
            if isinstance(node, PReg):
                self.precolored |= 1 << i
        return i

    def add_edge(self, a: Register, b: Register) -> None:
        if a == b or a.rclass is not b.rclass:
            return
        if isinstance(a, PReg) and isinstance(b, PReg):
            return
        i, j = self._id(a), self._id(b)
        rows = self.rows
        if rows[i] >> j & 1:
            return
        rows[i] |= 1 << j
        rows[j] |= 1 << i
        present = self.active | self.precolored
        if self.active >> i & 1 and present >> j & 1:
            self.deg[i] += 1
            self._note_degree(i)
        if self.active >> j & 1 and present >> i & 1:
            self.deg[j] += 1
            self._note_degree(j)

    def _note_degree(self, i: int) -> None:
        listener = self.degree_listener
        if listener is not None:
            listener(self.nodes[i], self.deg[i])

    def remove(self, node: VReg) -> None:
        """Simplification removal: take ``node`` out of the active graph."""
        i = self.ids.get(node)
        if i is None or not self.active >> i & 1:
            raise AllocationError(f"removing inactive node {node}")
        self.active ^= 1 << i
        listener = self.degree_listener
        deg = self.deg
        rest = self.rows[i] & self.active
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            deg[j] -= 1
            if listener is not None:
                listener(self.nodes[j], deg[j])

    def merge(self, kept: Register, gone: VReg) -> None:
        """Coalesce ``gone`` into ``kept`` (both must be active/precolored)."""
        if isinstance(gone, PReg):
            raise AllocationError("cannot merge away a physical register")
        if not self.is_active(gone):
            raise AllocationError(f"merging inactive node {gone}")
        if isinstance(kept, VReg) and not self.is_active(kept):
            raise AllocationError(f"merging into inactive node {kept}")
        ki, gi = self._id(kept), self.ids[gone]
        self.alias[gone] = kept
        mem = self.members.setdefault(kept, {kept})
        mem |= self.members_of(gone)
        self.members.pop(gone, None)

        gone_bit = 1 << gi
        self.active &= ~gone_bit
        rows = self.rows
        deg = self.deg
        for n in iter_bits(rows[gi]):
            rows[n] &= ~gone_bit
            if n == ki:
                # `kept` lost the (unusual) edge to `gone` itself.
                if isinstance(kept, VReg):
                    deg[ki] -= 1
                    self._note_degree(ki)
                continue
            # `gone` left the graph: a neighbor shared with `kept` loses
            # one active neighbor outright; an unshared one trades the
            # edge to `gone` for a new edge to `kept` (add_edge already
            # bumps both endpoint degrees), so it loses the `gone` count.
            if not rows[ki] >> n & 1:
                self.add_edge(kept, self.nodes[n])
            if self.active >> n & 1:
                deg[n] -= 1
                self._note_degree(n)
        rows[gi] = 0
        if isinstance(kept, VReg):
            cost = self.spill_costs.get(kept, 0.0) + self.spill_costs.get(
                gone, 0.0
            )
            self.spill_costs[kept] = cost
        # Move lists merge so copy-relatedness follows the representative.
        self.moves_of.setdefault(kept, []).extend(self.moves_of.get(gone, []))
        self.moves_of.pop(gone, None)

    # ------------------------------------------------------------------

    def copy_related(self, node: Register) -> set[Register]:
        """Current representatives this node is move-connected to."""
        out: set[Register] = set()
        for mv in self.moves_of.get(node, ()):
            for end in (mv.dst, mv.src):
                rep = self.find(end)
                if rep != self.find(node):
                    out.add(rep)
        return out


def build_alloc_graph(
    ig: InterferenceGraph,
    machine: TargetMachine,
    rclass: RegClass,
    spill_costs: dict[VReg, float] | None = None,
) -> AllocGraph:
    """Project the function-wide interference graph onto one class.

    Interference rows never cross classes, so the projection is just the
    class's masks over the shared rows: every vreg of the class starts
    active, with its row's size as degree.
    """
    regfile = machine.file(rclass)
    index = ig.index
    in_class = index.int_mask if rclass is RegClass.INT else index.float_mask
    graph = AllocGraph(
        rclass=rclass,
        k=regfile.k,
        colors=regfile.regs,
        nodes=index.regs,
        ids=index.ids,
        rows=ig.rows,
        active=in_class & ~index.preg_mask,
        precolored=in_class & index.preg_mask,
        deg=list(map(int.bit_count, ig.rows)),
        spill_costs=dict(spill_costs or {}),
        shared=True,
    )
    for mv in ig.moves:
        if mv.dst.rclass is not rclass:
            continue
        if isinstance(mv.dst, PReg) and isinstance(mv.src, PReg):
            continue
        graph.moves.append(mv)
        graph.moves_of.setdefault(mv.dst, []).append(mv)
        graph.moves_of.setdefault(mv.src, []).append(mv)
    return graph
