"""Aggressive coalescing shared by the allocator variants.

:func:`coalesce_aggressive` — Chaitin [2]: merge every copy-related,
non-interfering pair, iterating to a fixed point.

Merging into a physical register is allowed when the virtual end does not
interfere with it (dedicated-register coalescing, preference type 1); two
physical registers are never merged.
"""

from __future__ import annotations

from repro.ir.instructions import Move
from repro.ir.values import PReg, Register, VReg
from repro.regalloc.igraph import AllocGraph

__all__ = [
    "coalesce_aggressive",
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

