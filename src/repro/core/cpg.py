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

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from repro.errors import AllocationError
from repro.ir.values import VReg
from repro.profiling import phase
from repro.regalloc.igraph import AllocGraph
from repro.regalloc.simplify import SimplifyResult

__all__ = ["ColoringPrecedenceGraph", "build_cpg"]

TOP = "top"
BOTTOM = "bottom"


@dataclass(eq=False)
class ColoringPrecedenceGraph:
    """Successor/predecessor maps over live ranges plus top/bottom."""

    succs: dict[object, set[object]] = field(default_factory=dict)
    preds: dict[object, set[object]] = field(default_factory=dict)
    #: edge version counter backing the ``initial_queue`` memo
    _version: int = field(default=0, repr=False)
    _initial_cache: tuple | None = field(default=None, repr=False)

    def ensure(self, node) -> None:
        self.succs.setdefault(node, set())
        self.preds.setdefault(node, set())

    def add_edge(self, a, b) -> None:
        self.ensure(a)
        self.ensure(b)
        self.succs[a].add(b)
        self.preds[b].add(a)
        self._version += 1

    def remove_edge(self, a, b) -> None:
        self.succs.get(a, set()).discard(b)
        self.preds.get(b, set()).discard(a)
        self._version += 1

    def reaches(self, a, b) -> bool:
        """DFS reachability a ->* b."""
        if a == b:
            return True
        stack = [a]
        seen = {a}
        while stack:
            node = stack.pop()
            for nxt in self.succs.get(node, ()):
                if nxt == b:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # ------------------------------------------------------------------

    def live_nodes(self) -> list[VReg]:
        return [n for n in self.succs if isinstance(n, VReg)]

    def initial_queue(self) -> list[VReg]:
        """Step 1 of the selection algorithm: the top node's successors.

        Memoized behind the edge version counter: repeat callers (the
        ablation drivers re-derive it per traversal) get the cached
        sorted list instead of a re-sort, and any edge mutation
        invalidates the memo.
        """
        cache = self._initial_cache
        if cache is not None and cache[0] == self._version:
            return list(cache[1])
        out = sorted(
            (n for n in self.succs.get(TOP, ()) if isinstance(n, VReg)),
            key=lambda v: v.id,
        )
        self._initial_cache = (self._version, tuple(out))
        return out

    def topological_orders_exist(self) -> bool:
        """Cycle check (the construction can never produce one)."""
        indeg = {n: len(p) for n, p in self.preds.items()}
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for nxt in self.succs.get(node, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        return seen == len(self.succs)

    def any_topological_order(self) -> list[VReg]:
        """One topological order over live ranges (tests/ablations).

        FIFO over a deque — ``popleft`` is O(1) where ``list.pop(0)``
        shifted the whole queue — with successors enqueued in sorted
        order, so the emitted order is unchanged and deterministic.
        """
        indeg = {n: len(p) for n, p in self.preds.items()}
        ready = sorted(
            (n for n, d in indeg.items() if d == 0 and n not in (TOP, BOTTOM)),
            key=_order_key,
        )
        queue = deque([TOP])
        queue.extend(ready)
        out: list[VReg] = []
        while queue:
            node = queue.popleft()
            if isinstance(node, VReg):
                out.append(node)
            for nxt in sorted(self.succs.get(node, ()), key=_order_key):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        return out

    def __str__(self) -> str:
        lines = ["ColoringPrecedenceGraph {"]
        for node in sorted(self.succs, key=_order_key):
            targets = sorted(self.succs[node], key=_order_key)
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


def _wig_rows(graph: AllocGraph, wig_adjacency: dict[VReg, set[VReg]]):
    """Dense-id node list, int adjacency rows, and preg-degree offsets."""
    # Dense ids in ascending-vreg-id order, mirroring the step-4 walk.
    nodes: list[VReg] = sorted(wig_adjacency, key=lambda v: v.id)
    idx = {node: i for i, node in enumerate(nodes)}
    adj = [0] * len(nodes)
    preg_deg = [0] * len(nodes)
    for node, neigh in wig_adjacency.items():
        i = idx[node]
        mask = 0
        for w in neigh:
            mask |= 1 << idx[w]
        adj[i] = mask
        preg_deg[i] = sum(
            1 for x in graph.adj.get(node, ()) if not isinstance(x, VReg)
        )
    return nodes, idx, adj, preg_deg


def _wig_rows_usable(graph: AllocGraph, wig_adjacency) -> bool:
    """Whether ``graph``'s packed interference rows still equal the WIG.

    True only when the graph was projected from a bitmask interference
    graph, nothing has rewritten its adjacency since (coalescing or edge
    insertion clears ``adj_pristine``; simplification removals do not),
    and the snapshot covers every build-time vreg — i.e. it was taken
    before any removal, so neither its key set nor its neighbor sets
    were filtered by ``active``.
    """
    return (
        graph.source_rows is not None
        and graph.adj_pristine
        and len(wig_adjacency) == graph.initial_vregs > 0
    )


def _wig_rows_gathered(graph: AllocGraph, wig_adjacency):
    """:func:`_wig_rows` read straight off the interference rows.

    Each WIG node's local row is its global row's bits at the WIG
    nodes' dense ids: one ``itemgetter`` call picks those binary digits
    and ``int(..., 2)`` parses them back, so no Python loop runs per
    neighbor.  Valid only under :func:`_wig_rows_usable`.
    """
    index = graph.source_index
    rows = graph.source_rows
    ids = index.ids
    nodes: list[VReg] = sorted(wig_adjacency, key=lambda v: v.id)
    idx = {node: i for i, node in enumerate(nodes)}
    gids = [ids[node] for node in nodes]
    n = len(rows)
    width = f"0{n}b"
    # format(row, width) puts global bit g at digit n-1-g; the local
    # row's digits, most significant first, are the WIG nodes reversed.
    pick = itemgetter(*[n - 1 - g for g in reversed(gids)])
    join = "".join
    adj = [int(join(pick(format(rows[g], width))), 2) for g in gids]
    # Interference rows never cross classes, so masking with the global
    # preg bits counts exactly this class's precolored neighbors.
    preg_mask = index.preg_mask
    preg_deg = [(rows[g] & preg_mask).bit_count() for g in gids]
    return nodes, idx, adj, preg_deg


def build_cpg(
    graph: AllocGraph,
    wig_adjacency: dict[VReg, set[VReg]],
    simplification: SimplifyResult,
) -> ColoringPrecedenceGraph:
    """Run the Section 5.2 algorithm.

    ``wig_adjacency`` is the vreg-only adjacency of the interference
    graph *before* simplification removed anything (the WIG); ``graph``
    supplies K and the fixed physical-register degree offsets.

    The replay keeps one int adjacency row per node and a
    reachability closure, so the step-7 transitivity test is a single
    ``&``.  The closure stays exact because a node's out-edges are
    complete before any in-edge is added to it — in-edges to ``X``
    appear only at ``X``'s own pop, after which ``X`` (removed from the
    WIG) never gains another successor.  Structural work is
    deduplicated with a created-node bitmask and edges go in with
    direct set operations, with the edge version counter settled once
    at the end.  The plain replay the tests check this against, with
    every edge through ``add_edge``/``remove_edge``, lives in
    ``tests/oracles.py``.
    """
    k = graph.k
    if _wig_rows_usable(graph, wig_adjacency):
        nodes, idx, adj, preg_deg = _wig_rows_gathered(graph, wig_adjacency)
    else:
        nodes, idx, adj, preg_deg = _wig_rows(graph, wig_adjacency)
    n = len(nodes)
    bottom_bit = 1 << n

    cpg = ColoringPrecedenceGraph()
    cpg.ensure(TOP)
    cpg.ensure(BOTTOM)
    succs = cpg.succs
    preds = cpg.preds
    top_succs = succs[TOP]
    bottom_preds = preds[BOTTOM]

    alive = (1 << n) - 1
    ready = 0
    created = 0
    #: nodes whose step-4 edge to bottom is still present
    has_bottom = 0
    edge_ops = 0
    optimistic = simplification.optimistic
    #: per-node mask of CPG-reachable nodes (dense ids plus the bottom bit)
    reach = [0] * n

    # Step 4: initial low-degree nodes point at bottom and are ready;
    # potential-spill nodes point at bottom but are not ready.
    for i, node in enumerate(nodes):
        low = adj[i].bit_count() + preg_deg[i] < k
        if low or node in optimistic:
            succs[node] = {BOTTOM}
            preds[node] = set()
            bottom_preds.add(node)
            edge_ops += 1
            created |= 1 << i
            has_bottom |= 1 << i
            if low:
                ready |= 1 << i
            reach[i] |= bottom_bit

    # Steps 5-9: replay removals in simplification order.
    with phase("closure"):
        for popped in simplification.stack:
            pi = idx.get(popped)
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
            neighbors = adj[pi] & alive
            # Ensure only genuinely new nodes (ensured == created: every
            # ensured node was created at the same step), ascending.
            rest = neighbors & ~created
            while rest:
                low = rest & -rest
                rest ^= low
                w = nodes[low.bit_length() - 1]
                succs[w] = set()
                preds[w] = set()
            created |= neighbors

            non_ready = neighbors & ~ready
            if not non_ready:
                top_succs.add(popped)
                preds[popped].add(TOP)
                edge_ops += 1
                continue
            preds_popped = preds[popped]
            popped_reach = reach[pi] | popped_bit
            popped_to_bottom = reach[pi] & bottom_bit
            rest = non_ready
            while rest:
                low = rest & -rest
                rest ^= low
                wi = low.bit_length() - 1
                if not reach[wi] & popped_bit:
                    w = nodes[wi]
                    succs[w].add(popped)
                    preds_popped.add(w)
                    edge_ops += 1
                    reach[wi] |= popped_reach
                    if popped_to_bottom and has_bottom & low:
                        succs[w].discard(BOTTOM)
                        bottom_preds.discard(w)
                        has_bottom &= ~low
                        edge_ops += 1
                if (adj[wi] & alive).bit_count() + preg_deg[wi] < k:
                    ready |= low

    cpg._version = edge_ops
    return cpg
