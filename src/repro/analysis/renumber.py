"""The *renumber* phase: split virtual registers into maximal webs.

Every allocator in the paper (Figures 1–3, 8) starts with "renumber":
rename each def-use web of a variable to its own live-range name so the
interference graph gets one node per web, not per source variable.

A web is a maximal set of defs and uses connected through du-chains: two
defs belong to the same web when some use is reached by both.  We compute
block-level reaching definitions with integer bitsets, walk each block to
attach reaching defs to uses, and union-find the defs.  Physical registers
are never renumbered.

Bitset operations aside, every pass is linear in the size of
the function: gen/kill come from per-block def lists, a use looks up
its reaching defs on demand (the block's reach-in ANDed with the
variable's def mask, unless the block already redefined it), and def
points are found through a ``(block, index, register)`` dict.  The
quadratic scans this replaced are the reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.analysis import CFG, build_cfg
from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.ir.values import VReg

__all__ = ["Web", "RenumberResult", "renumber"]


@dataclass(eq=False)
class Web:
    """One allocatable live range after renumbering."""

    reg: VReg
    original: VReg
    n_defs: int = 0
    n_uses: int = 0


@dataclass(eq=False)
class RenumberResult:
    webs: list[Web] = field(default_factory=list)
    #: original vreg -> number of webs it split into
    split_counts: dict[VReg, int] = field(default_factory=dict)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def renumber(func: Function, cfg: CFG | None = None) -> RenumberResult:
    """Rewrite ``func`` in place so each web has a unique virtual register."""
    if any(isinstance(i, Phi) for b in func.blocks for i in b.instrs):
        raise ValueError("renumber runs after out-of-SSA (phis present)")
    if cfg is None:
        cfg = build_cfg(func)

    # --- enumerate definition points ------------------------------------
    # A def point is (block, instr index, vreg); parameters and
    # never-defined uses get synthetic entry defs.
    def_ids_of: dict[VReg, list[int]] = {}
    # def ids per block label, in enumeration order
    block_defs: dict[str, list[tuple[int, VReg]]] = {}
    # (label, instr index, vreg) -> def id (the first, if repeated)
    def_id_at: dict[tuple[str, int, VReg], int] = {}
    n_defs = 0

    def add_def(label: str, index: int, var: VReg) -> int:
        nonlocal n_defs
        def_id = n_defs
        n_defs += 1
        def_ids_of.setdefault(var, []).append(def_id)
        block_defs.setdefault(label, []).append((def_id, var))
        def_id_at.setdefault((label, index, var), def_id)
        return def_id

    entry_label = func.entry.label
    synthetic: dict[VReg, int] = {}
    for param in func.params:
        synthetic[param] = add_def(entry_label, -1, param)
    for blk in func.blocks:
        for idx, instr in enumerate(blk.instrs):
            for d in instr.defs():
                if isinstance(d, VReg):
                    add_def(blk.label, idx, d)
    # Synthetic defs for uses that no real def can reach (defensive).
    for blk in func.blocks:
        for instr in blk.instrs:
            for u in instr.uses():
                if isinstance(u, VReg) and u not in def_ids_of:
                    synthetic[u] = add_def(entry_label, -1, u)

    masks_of: dict[VReg, int] = {}
    for var, ids in def_ids_of.items():
        mask = 0
        for i in ids:
            mask |= 1 << i
        masks_of[var] = mask

    # --- block-level reaching definitions (bitsets) ----------------------
    gen: dict[str, int] = {}
    kill: dict[str, int] = {}
    for blk in func.blocks:
        current: dict[VReg, int] = {}
        for def_id, var in block_defs.get(blk.label, ()):
            current[var] = def_id  # later defs overwrite: last wins
        g = 0
        k = 0
        for var, def_id in current.items():
            g |= 1 << def_id
            k |= masks_of[var]
        gen[blk.label] = g
        kill[blk.label] = k & ~g

    reach_in: dict[str, int] = {blk.label: 0 for blk in func.blocks}
    reach_out: dict[str, int] = {
        blk.label: gen[blk.label] for blk in func.blocks
    }
    order = cfg.reverse_postorder()
    changed = True
    while changed:
        changed = False
        for label in order:
            rin = 0
            for pred in cfg.preds[label]:
                rin |= reach_out[pred]
            rout = gen[label] | (rin & ~kill[label])
            if rin != reach_in[label] or rout != reach_out[label]:
                reach_in[label] = rin
                reach_out[label] = rout
                changed = True

    # --- attach reaching defs to uses; union defs sharing a use ---------
    uf = _UnionFind(n_defs)
    blocks = func.block_map()
    use_class: dict[tuple[int, VReg], int] = {}  # (id(instr), var) -> def class
    for label in order:
        blk = blocks[label]
        # Defs made earlier in this block; any other variable's reaching
        # defs are looked up from the block's reach-in on use.
        local_def: dict[VReg, int] = {}
        rin = reach_in[label]
        for idx, instr in enumerate(blk.instrs):
            for u in instr.uses():
                if not isinstance(u, VReg):
                    continue
                mask = local_def.get(u)
                if mask is None:
                    mask = rin & masks_of.get(u, 0)
                    if not mask and u in synthetic:
                        mask = 1 << synthetic[u]
                if mask == 0:
                    mask = 1 << synthetic.setdefault(
                        u, add_def(entry_label, -1, u)
                    )
                    # (new synthetic defs can't appear here in practice;
                    # the pre-pass above registered them)
                first = _lowest_bit(mask)
                rest = mask & (mask - 1)
                while rest:
                    bit = _lowest_bit(rest)
                    uf.union(first, bit)
                    rest &= rest - 1
                use_class[(id(instr), u)] = first
            for d in instr.defs():
                if isinstance(d, VReg):
                    local_def[d] = 1 << def_id_at[(label, idx, d)]

    # --- build webs and rewrite -----------------------------------------
    web_of_class: dict[int, Web] = {}
    result = RenumberResult()

    def web_for(def_id: int, var: VReg) -> Web:
        root = uf.find(def_id)
        if root not in web_of_class:
            count = result.split_counts.get(var, 0)
            result.split_counts[var] = count + 1
            name = var.name or f"{var.rclass.prefix()}{var.id}"
            if count:
                name = f"{name}.w{count}"
            reg = func.new_vreg(var.rclass, name=name, no_spill=var.no_spill)
            web = Web(reg=reg, original=var)
            web_of_class[root] = web
            result.webs.append(web)
        return web_of_class[root]

    reachable = set(order)
    for blk in func.blocks:
        if blk.label not in reachable:
            continue
        for idx, instr in enumerate(blk.instrs):
            use_map = {}
            for u in instr.uses():
                if isinstance(u, VReg):
                    cls = use_class[(id(instr), u)]
                    web = web_for(cls, u)
                    web.n_uses += 1
                    use_map[u] = web.reg
            def_map = {}
            for d in instr.defs():
                if isinstance(d, VReg):
                    def_id = def_id_at[(blk.label, idx, d)]
                    web = web_for(def_id, d)
                    web.n_defs += 1
                    def_map[d] = web.reg
            if use_map:
                instr.replace_uses(use_map)
            if def_map:
                instr.replace_defs(def_map)

    func.params = [
        web_for(synthetic[p], p).reg if p in synthetic else p
        for p in func.params
    ]
    return result


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1
