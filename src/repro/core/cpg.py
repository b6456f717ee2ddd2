"""The Coloring Precedence Graph (Section 5.2).

The CPG is a partial order on live ranges that *relaxes* the total
select order of the simplification stack without giving up the
colorability it certifies: any topological traversal colors every node
that was not an optimistic (potential-spill) push.

Built exactly by the paper's nine-step algorithm: replay the removals of
the simplification stack against a working copy of the interference
graph (WIG), tracking which nodes are *ready* (currently low-degree, so
colorable whenever we please).  When node ``X``'s removal is replayed,
every remaining neighbor ``W`` that is not yet ready receives an edge
``W → X`` ("W must be colored before X"); if all remaining neighbors are
ready, ``X`` hangs off the *top* node instead.  Newly low-degree
neighbors become ready.  Edges made transitive by an addition are
dropped (step 7).

The graph lives on the coloring graph's dense ids: every edge set is an
int mask (``succ[i]``/``pred[i]`` over live-range ids, plus the
``top`` and ``bottom`` masks for the two sentinel nodes), and the replay
reads the WIG straight off the coloring graph's interference rows.

One deviation, for soundness with precolored nodes: the paper removes
physical registers from the WIG outright; we instead keep each node's
count of physical-register neighbors as a fixed degree offset, so
"ready" (= degree < K) accounts for colors that are taken from the very
start.  With no physical edges the two formulations coincide.

Edge direction sanity (Figure 7(e), K=3, removal order v0 v4 v1 v2 v3):
replaying v0 adds v1→v0 and v2→v0; replaying v4 adds v3→v4; v1, v2, v3
hang off top; v0 and v4 point at bottom.  The initial ready set {v0, v4}
is exactly the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.indexing import iter_bits
from repro.errors import AllocationError
from repro.profiling import phase
from repro.regalloc.igraph import AllocGraph
from repro.regalloc.simplify import SimplifyResult

__all__ = ["ColoringPrecedenceGraph", "build_cpg", "chain_cpg"]

TOP = "top"
BOTTOM = "bottom"


@dataclass(eq=False)
class ColoringPrecedenceGraph:
    """Precedence edges over the dense ids of one coloring graph.

    ``succ[i]``/``pred[i]`` are masks of live-range ids ("``i`` must be
    colored before every id in ``succ[i]``"); ``top`` holds the ids the
    top node points at, ``bottom`` the ids pointing at the bottom node,
    and ``live`` every live range in the graph.
    """

    #: dense id -> register (the coloring graph's ``nodes``)
    nodes: list
    succ: list[int] = field(default_factory=list)
    pred: list[int] = field(default_factory=list)
    live: int = 0
    top: int = 0
    bottom: int = 0

    def __post_init__(self) -> None:
        if not self.succ:
            self.succ = [0] * len(self.nodes)
            self.pred = [0] * len(self.nodes)

    @property
    def succs(self) -> dict[object, set[object]]:
        """Successor sets keyed by live range, ``TOP`` and ``BOTTOM``
        (printing, DOT export and tests).  Built afresh on each access:
        a read-only snapshot, so writes to it do not reach the CPG."""
        nodes = self.nodes
        out: dict[object, set[object]] = {
            TOP: {nodes[i] for i in iter_bits(self.top)}, BOTTOM: set()}
        for i in iter_bits(self.live):
            targets = {nodes[j] for j in iter_bits(self.succ[i])}
            if self.bottom >> i & 1:
                targets.add(BOTTOM)
            out[nodes[i]] = targets
        return out

    def __str__(self) -> str:
        succs = self.succs
        lines = ["ColoringPrecedenceGraph {"]
        for node in sorted(succs, key=_order_key):
            targets = sorted(succs[node], key=_order_key)
            if targets:
                shown = ", ".join(str(t) for t in targets)
                lines.append(f"  {node} -> {shown}")
        lines.append("}")
        return "\n".join(lines)


def _order_key(node) -> tuple:
    if node == TOP:
        return (0, 0, "")
    if node == BOTTOM:
        return (2, 0, "")
    return (1, node.id, node.name or "")


def build_cpg(
    graph: AllocGraph,
    wig: int,
    simplification: SimplifyResult,
) -> ColoringPrecedenceGraph:
    """Run the Section 5.2 algorithm.

    ``wig`` is the mask of ``graph``'s active nodes *before*
    simplification removed anything: with ``graph.rows`` it is the
    interference graph the replay works on (the WIG).  ``graph`` also
    supplies K and the fixed physical-register degree offsets.

    The replay keeps a reachability closure per node, so the step-7
    transitivity test is a single ``&``.  The closure stays exact
    because a node's out-edges are complete before any in-edge is added
    to it — in-edges to ``X`` appear only at ``X``'s own pop, after
    which ``X`` (removed from the WIG) never gains another successor.
    The plain set-based replay the tests check this against lives in
    ``tests/oracles.py``.
    """
    k = graph.k
    rows = graph.rows
    ids = graph.ids
    precolored = graph.precolored
    cpg = ColoringPrecedenceGraph(graph.nodes)
    succ = cpg.succ
    pred = cpg.pred

    alive = wig
    ready = 0
    created = 0
    #: nodes whose step-4 edge to bottom is still present
    has_bottom = 0
    top = 0
    optimistic = 0
    for node in simplification.optimistic:
        optimistic |= 1 << ids[node]
    #: per-node mask of CPG-reachable live ranges
    reach = [0] * len(rows)

    # Step 4: initial low-degree nodes point at bottom and are ready;
    # potential-spill nodes point at bottom but are not ready.
    for i in iter_bits(wig):
        low = (rows[i] & (wig | precolored)).bit_count() < k
        if low or optimistic >> i & 1:
            created |= 1 << i
            has_bottom |= 1 << i
            if low:
                ready |= 1 << i

    # Steps 5-9: replay removals in simplification order.
    with phase("closure"):
        for popped in simplification.stack:
            pi = ids.get(popped)
            if pi is None or not (alive >> pi) & 1:
                raise AllocationError(
                    f"stack node {popped} missing from WIG"
                )
            if not (created >> pi) & 1:
                raise AllocationError(
                    f"CPG invariant broken: {popped} popped before being "
                    f"created (neither low-degree, optimistic, nor a "
                    f"neighbor of an earlier pop)"
                )
            popped_bit = 1 << pi
            alive &= ~popped_bit
            present = alive | precolored
            neighbors = rows[pi] & alive
            created |= neighbors

            non_ready = neighbors & ~ready
            if not non_ready:
                top |= popped_bit
                continue
            popped_reach = reach[pi] | popped_bit
            into = 0
            rest = non_ready
            while rest:
                low = rest & -rest
                rest ^= low
                wi = low.bit_length() - 1
                # Step 7: skip (and never create) transitive edges.
                if not reach[wi] & popped_bit:
                    succ[wi] |= popped_bit
                    into |= low
                    reach[wi] |= popped_reach
                # Step 8: removal may have made neighbors low-degree.
                if (rows[wi] & present).bit_count() < k:
                    ready |= low
            pred[pi] = into
            # Every created node reaches bottom (step-4 nodes directly,
            # the others through the pop that created them, and ready
            # ones through their edge or the pop that readied them), so
            # a new edge w -> popped makes w -> bottom transitive.
            has_bottom &= ~into

    cpg.live = created
    cpg.top = top
    cpg.bottom = has_bottom
    return cpg


def chain_cpg(graph: AllocGraph, order) -> ColoringPrecedenceGraph:
    """The total order ``order`` (registers of ``graph``, first to be
    colored first) as a precedence chain: top -> order[0] -> ... ->
    order[-1] -> bottom.  The CPG ablation colors in Briggs pop order."""
    cpg = ColoringPrecedenceGraph(graph.nodes)
    chain = [graph.ids[node] for node in order]
    if not chain:
        return cpg
    for earlier, later in zip(chain, chain[1:]):
        cpg.succ[earlier] |= 1 << later
        cpg.pred[later] |= 1 << earlier
    for i in chain:
        cpg.live |= 1 << i
    cpg.top = 1 << chain[0]
    cpg.bottom = 1 << chain[-1]
    return cpg
