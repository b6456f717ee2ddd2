"""Out-of-SSA: naive phi elimination through copies.

This is deliberately the *naive* scheme the paper's introduction motivates
("a naive SSA-transformed program has many copy operations, and therefore
it is necessary to remove as many copies as possible by a good register
selection"): each phi ``d = phi[P1: v1, ..., Pn: vn]`` becomes

* a fresh carrier ``t``,
* ``t = vi`` at the end of every predecessor ``Pi``,
* ``d = t`` at the phi's position.

Routing every arm through a single carrier temp sidesteps both the
lost-copy and the swap problem (all arm reads happen in the predecessors,
before any phi destination is overwritten), at the price of one extra copy
per phi — which is exactly the copy pressure the coalescing evaluation in
Figure 9 is about.  Critical edges are split first so arm copies never
execute on an unrelated path.
"""

from __future__ import annotations

from repro.cfg.analysis import build_cfg
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import ConstInst, Jump, Move, Phi
from repro.ir.values import Const

__all__ = ["from_ssa", "split_critical_edges"]


def split_critical_edges(func: Function) -> int:
    """Split every edge whose source has >1 successor and target >1
    predecessor; returns the number of edges split."""
    cfg = build_cfg(func)
    blocks = func.block_map()
    taken = set(blocks)
    split = 0
    for src_label in list(cfg.succs):
        succs = cfg.succs[src_label]
        if len(succs) < 2:
            continue
        for dst_label in succs:
            if len(cfg.preds[dst_label]) < 2:
                continue
            split += 1
            # Labels may contain dots, so a minted label can already be
            # in use; skip to the next free suffix.
            suffix = split
            while (mid_label := f"{src_label}.{dst_label}.{suffix}") in taken:
                suffix += 1
            taken.add(mid_label)
            mid = BasicBlock(mid_label, [Jump(dst_label)])
            # Place the split block right before its target for readability.
            index = func.blocks.index(blocks[dst_label])
            func.blocks.insert(index, mid)
            term = blocks[src_label].terminator
            assert term is not None
            _retarget(term, dst_label, mid_label)
            for phi in blocks[dst_label].phis():
                if src_label in phi.incoming:
                    phi.incoming[mid_label] = phi.incoming.pop(src_label)
            # Rebuild edge snapshots that the loop still consults.
            cfg = build_cfg(func)
            blocks = func.block_map()
    return split


def _retarget(term, old: str, new: str) -> None:
    from repro.ir.instructions import Branch, Jump as J

    if isinstance(term, J):
        if term.target == old:
            term.target = new
    elif isinstance(term, Branch):
        if term.iftrue == old:
            term.iftrue = new
        if term.iffalse == old:
            term.iffalse = new


def from_ssa(func: Function) -> Function:
    """Replace all phis with copies, in place (also returns the function)."""
    split_critical_edges(func)
    blocks = func.block_map()
    for blk in func.blocks:
        phis = blk.phis()
        if not phis:
            continue
        for phi in phis:
            carrier = func.new_vreg(
                phi.dst.rclass, name=_carrier_name(phi)
            )
            for pred_label, value in phi.incoming.items():
                pred = blocks[pred_label]
                if isinstance(value, Const):
                    pred.insert_before_terminator(ConstInst(carrier, value.value))
                else:
                    pred.insert_before_terminator(Move(carrier, value))
            # The phi slot itself becomes `dst = carrier`.
            index = blk.instrs.index(phi)
            blk.instrs[index] = Move(phi.dst, carrier)
    assert not any(isinstance(i, Phi) for b in func.blocks for i in b.instrs)
    return func


def _carrier_name(phi: Phi) -> str | None:
    base = getattr(phi.dst, "name", None)
    return f"{base}.c" if base else None
