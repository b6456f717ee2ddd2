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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    #: full adjacency over vregs and pregs (grows under coalescing)
    adj: dict[Register, set[Register]] = field(default_factory=dict)
    #: nodes still in the graph (vregs only; pregs are always present)
    active: set[VReg] = field(default_factory=set)
    #: current degree of each active vreg w.r.t. active ∪ precolored
    _degree: dict[VReg, int] = field(default_factory=dict)
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
    #: when built from a bitmask-form interference graph, the symmetric
    #: int rows and dense index it was projected from.  Consumers (the
    #: CPG replay) may read adjacency straight from these rows as long
    #: as ``adj_pristine`` still holds.
    source_rows: list[int] | None = field(default=None, repr=False)
    source_index: object | None = field(default=None, repr=False)
    #: vreg count at build time (``adj`` rows match ``source_rows`` only
    #: while no edge has been added or node coalesced since then; plain
    #: simplification removals never rewrite ``adj`` so they keep this
    #: True)
    adj_pristine: bool = True
    initial_vregs: int = 0

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

    def is_precolored(self, node: Register) -> bool:
        return isinstance(node, PReg)

    def degree(self, node: Register) -> int:
        if isinstance(node, PReg):
            return INFINITE_DEGREE
        return self._degree[node]

    def neighbors(self, node: Register) -> set[Register]:
        """Active (or precolored) neighbors of ``node``."""
        return {
            n for n in self.adj.get(node, ())
            if isinstance(n, PReg) or n in self.active
        }

    def all_neighbors(self, node: Register) -> set[Register]:
        """Neighbors including removed ones (used by select/CPG replay)."""
        return set(self.adj.get(node, ()))

    def interferes(self, a: Register, b: Register) -> bool:
        if isinstance(a, PReg) and isinstance(b, PReg):
            return a != b
        return b in self.adj.get(a, ())

    def significant(self, node: Register) -> bool:
        """Degree >= K (Briggs's 'significant-degree' test)."""
        return self.degree(node) >= self.k

    def vregs(self) -> list[VReg]:
        return [n for n in self.adj if isinstance(n, VReg)]

    def spill_cost(self, node: VReg) -> float:
        if node.no_spill or any(
            isinstance(m, VReg) and m.no_spill for m in self.members_of(node)
        ):
            return float("inf")
        return self.spill_costs.get(node, 1.0)

    # ------------------------------------------------------------------
    # mutation

    def add_edge(self, a: Register, b: Register) -> None:
        if a == b or a.rclass is not b.rclass:
            return
        if isinstance(a, PReg) and isinstance(b, PReg):
            return
        if b in self.adj.setdefault(a, set()):
            return
        self.adj_pristine = False
        self.adj[a].add(b)
        self.adj.setdefault(b, set()).add(a)
        if isinstance(a, VReg) and a in self.active and (
            isinstance(b, PReg) or b in self.active
        ):
            self._degree[a] += 1
            self._note_degree(a)
        if isinstance(b, VReg) and b in self.active and (
            isinstance(a, PReg) or a in self.active
        ):
            self._degree[b] += 1
            self._note_degree(b)

    def _note_degree(self, node: VReg) -> None:
        listener = self.degree_listener
        if listener is not None:
            listener(node, self._degree[node])

    def remove(self, node: VReg) -> None:
        """Simplification removal: take ``node`` out of the active graph."""
        if node not in self.active:
            raise AllocationError(f"removing inactive node {node}")
        self.active.remove(node)
        listener = self.degree_listener
        degree = self._degree
        for n in self.adj.get(node, ()):
            if isinstance(n, VReg) and n in self.active:
                degree[n] -= 1
                if listener is not None:
                    listener(n, degree[n])

    def merge(self, kept: Register, gone: VReg) -> None:
        """Coalesce ``gone`` into ``kept`` (both must be active/precolored)."""
        if isinstance(gone, PReg):
            raise AllocationError("cannot merge away a physical register")
        if gone not in self.active:
            raise AllocationError(f"merging inactive node {gone}")
        if isinstance(kept, VReg) and kept not in self.active:
            raise AllocationError(f"merging into inactive node {kept}")
        self.adj_pristine = False
        self.alias[gone] = kept
        mem = self.members.setdefault(kept, {kept})
        mem |= self.members_of(gone)
        self.members.pop(gone, None)

        self.active.remove(gone)
        kept_adj = self.adj.setdefault(kept, set())
        for n in list(self.adj.get(gone, ())):
            self.adj[n].discard(gone)
            if n == kept:
                # `kept` lost the (unusual) edge to `gone` itself.
                if isinstance(kept, VReg):
                    self._degree[kept] -= 1
                    self._note_degree(kept)
                kept_adj.discard(gone)
                continue
            # `gone` left the graph: a neighbor shared with `kept` loses
            # one active neighbor outright; an unshared one trades the
            # edge to `gone` for a new edge to `kept` (add_edge already
            # bumps both endpoint degrees), so it loses the `gone` count.
            if n in kept_adj:
                if isinstance(n, VReg) and n in self.active:
                    self._degree[n] -= 1
                    self._note_degree(n)
            else:
                self.add_edge(kept, n)
                if isinstance(n, VReg) and n in self.active:
                    self._degree[n] -= 1
                    self._note_degree(n)
        self.adj[gone] = set()
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

    def snapshot_active_adjacency(self) -> dict[VReg, set[VReg]]:
        """Vreg-only adjacency of the currently active graph (CPG input)."""
        out: dict[VReg, set[VReg]] = {}
        for node in self.active:
            out[node] = {
                n for n in self.adj.get(node, ())
                if isinstance(n, VReg) and n in self.active
            }
        return out


def build_alloc_graph(
    ig: InterferenceGraph,
    machine: TargetMachine,
    rclass: RegClass,
    spill_costs: dict[VReg, float] | None = None,
) -> AllocGraph:
    """Project the function-wide interference graph onto one class."""
    regfile = machine.file(rclass)
    graph = AllocGraph(
        rclass=rclass,
        k=regfile.k,
        colors=regfile.regs,
        spill_costs=dict(spill_costs or {}),
    )
    # Pre-partitioned projection: only this class's nodes are visited,
    # and every vreg starts active, so its degree is just its row size
    # (interference edges never cross classes).  A bitmask-form graph
    # hands out each neighbor set directly from its rows, so the
    # function-wide adjacency dict never needs to exist.
    class_nodes = ig.nodes_by_class().get(rclass, [])
    from_rows = ig.rows is not None and not ig.materialized
    if from_rows:
        graph.source_rows = ig.rows
        graph.source_index = ig.index
    for node in class_nodes:
        row = ig.row_set(node) if from_rows else set(ig.neighbors(node))
        graph.adj[node] = row
        if isinstance(node, VReg):
            graph.active.add(node)
            graph.members[node] = {node}
            graph._degree[node] = len(row)
    graph.initial_vregs = len(graph.active)
    for preg in regfile.regs:
        graph.adj.setdefault(preg, set())
    for mv in ig.moves:
        if mv.dst.rclass is not rclass:
            continue
        if isinstance(mv.dst, PReg) and isinstance(mv.src, PReg):
            continue
        graph.moves.append(mv)
        graph.moves_of.setdefault(mv.dst, []).append(mv)
        graph.moves_of.setdefault(mv.src, []).append(mv)
    return graph
