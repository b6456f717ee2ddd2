"""Queries over a Coloring Precedence Graph that only tests ask.

All of them read the graph through its register-keyed ``succs`` view
(``TOP``/``BOTTOM`` included), so they share nothing with the id masks
the allocator walks.
"""

from __future__ import annotations

from collections import deque

from repro.core.cpg import BOTTOM, TOP
from repro.ir.values import VReg


def order_key(node) -> tuple:
    if node == TOP:
        return (0, 0, "")
    if node == BOTTOM:
        return (2, 0, "")
    return (1, node.id, node.name or "")


def preds_of(cpg) -> dict:
    """Predecessor sets, the inverse of ``cpg.succs``."""
    succs = cpg.succs
    preds = {node: set() for node in succs}
    for node, targets in succs.items():
        for target in targets:
            preds[target].add(node)
    return preds


def live_nodes(cpg) -> list[VReg]:
    return [n for n in cpg.succs if isinstance(n, VReg)]


def initial_queue(cpg) -> list[VReg]:
    """Step 1 of the selection algorithm: the top node's successors."""
    return sorted(cpg.succs[TOP], key=lambda v: v.id)


def reaches(cpg, a, b) -> bool:
    """DFS reachability a ->* b."""
    succs = cpg.succs
    stack, seen = [a], {a}
    while stack:
        node = stack.pop()
        if node == b:
            return True
        for nxt in succs.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def topological_orders_exist(cpg) -> bool:
    """Cycle check (the construction can never produce one)."""
    succs = cpg.succs
    indeg = {n: len(p) for n, p in preds_of(cpg).items()}
    queue = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for nxt in succs[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return seen == len(succs)


def any_topological_order(cpg) -> list[VReg]:
    """One deterministic topological order over the live ranges (FIFO,
    successors enqueued in id order)."""
    succs = cpg.succs
    indeg = {n: len(p) for n, p in preds_of(cpg).items()}
    ready = sorted((n for n, d in indeg.items()
                    if d == 0 and n not in (TOP, BOTTOM)), key=order_key)
    queue = deque([TOP])
    queue.extend(ready)
    out: list[VReg] = []
    while queue:
        node = queue.popleft()
        if isinstance(node, VReg):
            out.append(node)
        for nxt in sorted(succs[node], key=order_key):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return out
