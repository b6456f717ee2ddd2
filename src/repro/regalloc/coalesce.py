"""Coalescing strategies shared by the allocator variants.

* :func:`coalesce_aggressive` — Chaitin [2]: merge every copy-related,
  non-interfering pair, iterating to a fixed point.
* :func:`briggs_conservative_ok` — Briggs et al. [3]: merging is safe when
  the combined node has fewer than K significant-degree neighbors.
* :func:`george_ok` — George & Appel [6]: safe when every neighbor of one
  end either already interferes with the other end or is low-degree
  (the test that works with precolored nodes).

Merging into a physical register is allowed when the virtual end does not
interfere with it (dedicated-register coalescing, preference type 1); two
physical registers are never merged.
"""

from __future__ import annotations

from repro.analysis.indexing import iter_bits
from repro.ir.instructions import Move
from repro.ir.values import PReg, Register, VReg
from repro.regalloc.igraph import AllocGraph

__all__ = [
    "coalesce_aggressive",
    "coalesce_conservative",
    "briggs_conservative_ok",
    "george_ok",
    "conservative_ok",
    "mergeable",
    "merge_move",
]


def mergeable(graph: AllocGraph, a: Register, b: Register) -> bool:
    """Structurally allowed to merge (ignoring conservatism)."""
    a, b = graph.find(a), graph.find(b)
    if a == b:
        return False
    if isinstance(a, PReg) and isinstance(b, PReg):
        return False
    if a.rclass is not b.rclass:
        return False
    if graph.interferes(a, b):
        return False
    # Both ends must still be in the graph.
    for end in (a, b):
        if isinstance(end, VReg) and not graph.is_active(end):
            return False
    return True


def merge_move(graph: AllocGraph, mv: Move) -> Register | None:
    """Merge the endpoints of ``mv`` if allowed; returns the survivor."""
    a, b = graph.find(mv.dst), graph.find(mv.src)
    if not mergeable(graph, a, b):
        return None
    if isinstance(b, PReg):
        kept, gone = b, a
    else:
        kept, gone = a, b
    assert isinstance(gone, VReg)
    graph.merge(kept, gone)
    return kept


def coalesce_aggressive(graph: AllocGraph) -> int:
    """Chaitin-style aggressive coalescing to a fixed point."""
    merged = 0
    changed = True
    while changed:
        changed = False
        for mv in graph.moves:
            if merge_move(graph, mv) is not None:
                merged += 1
                changed = True
    return merged


def briggs_conservative_ok(graph: AllocGraph, a: Register,
                           b: Register) -> bool:
    """Briggs test: merged node has < K significant-degree neighbors."""
    present = graph.active | graph.precolored
    row_a = graph.row(a) & present
    row_b = graph.row(b) & present
    combined = row_a | row_b
    for end in (a, b):
        if end in graph.ids:
            combined &= ~(1 << graph.ids[end])
    # Physical registers are always significant.
    significant = (combined & graph.precolored).bit_count()
    # A vreg neighbor of both ends loses one edge in the merge.
    shared = row_a & row_b
    deg = graph.deg
    k = graph.k
    for n in iter_bits(combined & graph.active):
        if deg[n] - (shared >> n & 1) >= k:
            significant += 1
    return significant < k


def george_ok(graph: AllocGraph, a: Register, b: Register) -> bool:
    """George test for merging ``a`` into ``b``.

    Safe when every neighbor t of ``a`` already interferes with ``b`` or
    has insignificant degree.  Used when ``b`` is precolored.
    """
    interfering = graph.row(b)
    if isinstance(b, PReg):
        # Distinct physical registers interfere implicitly.
        interfering |= graph.precolored
        if b in graph.ids:
            interfering &= ~(1 << graph.ids[b])
    row_a = graph.row(a) & ~interfering
    if row_a & graph.precolored:
        return False  # a physical neighbor's degree is infinite
    deg = graph.deg
    k = graph.k
    return all(deg[t] < k for t in iter_bits(row_a & graph.active))


def conservative_ok(graph: AllocGraph, a: Register, b: Register) -> bool:
    """Combined conservative test, choosing Briggs or George by shape."""
    if isinstance(a, PReg):
        return george_ok(graph, b, a)
    if isinstance(b, PReg):
        return george_ok(graph, a, b)
    return briggs_conservative_ok(graph, a, b)


def coalesce_conservative(graph: AllocGraph) -> int:
    """Fixed-point conservative coalescing (Briggs/George tests)."""
    merged = 0
    changed = True
    while changed:
        changed = False
        for mv in graph.moves:
            a, b = graph.find(mv.dst), graph.find(mv.src)
            if not mergeable(graph, a, b):
                continue
            if not conservative_ok(graph, a, b):
                continue
            if merge_move(graph, mv) is not None:
                merged += 1
                changed = True
    return merged
