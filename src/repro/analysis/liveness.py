"""Backward liveness dataflow over registers.

Works both before and after SSA: phi instructions are handled with the
standard convention that a phi's arm ``(pred, value)`` is a *use at the end
of pred*, not a use in the phi's own block, and the phi destination is a
def at the top of its block.  Physical registers are tracked exactly like
virtual ones — their live ranges (argument setup before calls, the return
register, ...) create the dedicated-register interference the allocators
must respect.

The fixed point runs over *bitmasks*: one walk of the function
(:func:`repro.analysis.matrix.build_pack`) gives every register a dense
id and summarizes each block into gen (upward-exposed use) / kill (def)
masks, and :func:`repro.analysis.matrix.solve_liveness` drives them to
the fixed point (numpy row sweeps, or a plain int worklist on small
functions).  The direct set-based formulation is the test oracle in
``tests/oracles.py``; the property suite asserts the two agree
set-for-set on randomized CFGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import matrix
from repro.analysis.indexing import RegisterIndex
from repro.cfg.analysis import CFG, build_cfg
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Phi
from repro.ir.values import PReg, Register, VReg
from repro.profiling import phase

__all__ = [
    "Liveness",
    "compute_liveness",
    "instruction_liveness",
    "instruction_liveness_masks",
]


def _regs(values) -> set[Register]:
    return {v for v in values if isinstance(v, (VReg, PReg))}


@dataclass(eq=False)
class Liveness:
    """Per-block live-in/live-out sets plus block-local summaries."""

    live_in: dict[str, set[Register]] = field(default_factory=dict)
    live_out: dict[str, set[Register]] = field(default_factory=dict)
    #: upward-exposed uses per block (phi arms excluded)
    use: dict[str, set[Register]] = field(default_factory=dict)
    #: registers defined per block (phi dsts included)
    defs: dict[str, set[Register]] = field(default_factory=dict)
    #: dense register index shared by the mask fields (None when the
    #: object was built by hand rather than by :func:`compute_liveness`)
    index: RegisterIndex | None = None
    #: bitmask twins of ``live_in``/``live_out``, for mask-level consumers
    live_in_mask: dict[str, int] = field(default_factory=dict)
    live_out_mask: dict[str, int] = field(default_factory=dict)
    #: bitmask twins of ``use``/``defs`` (the gen/kill summaries) — kept so
    #: incremental spill-round re-analysis can reuse untouched blocks'
    #: summaries without rescanning their instructions
    use_mask: dict[str, int] = field(default_factory=dict)
    defs_mask: dict[str, int] = field(default_factory=dict)
    #: the :class:`~repro.analysis.matrix.FunctionPack` this liveness was
    #: computed from (None for patched liveness).  The interference
    #: builder reuses it to skip re-walking the function.
    pack: object | None = field(default=None, repr=False)

    def live_across_instr(self, block: BasicBlock, index: int) -> set[Register]:
        """Registers live immediately *after* ``block.instrs[index]``.

        A convenience for tests and for the call-crossing cost evaluation;
        recomputes a backward scan of the block suffix on each call.
        """
        live = set(self.live_out[block.label])
        for instr in reversed(block.instrs[index + 1:]):
            live -= _regs(instr.defs())
            if isinstance(instr, Phi):
                continue
            live |= _regs(instr.uses())
        return live


def _block_masks(
    block: BasicBlock, index: RegisterIndex
) -> tuple[int, int, int]:
    """(gen, kill, phi-def) masks of one block."""
    bit_of = index.bit_of
    gen = kill = phi_defs = 0
    for instr in block.instrs:
        if isinstance(instr, Phi):
            dbit = bit_of(instr.dst)
            kill |= dbit
            phi_defs |= dbit
            continue
        for u in instr.uses():
            if isinstance(u, (VReg, PReg)):
                ubit = bit_of(u)
                if not kill & ubit:
                    gen |= ubit
        for d in instr.defs():
            if isinstance(d, (VReg, PReg)):
                kill |= bit_of(d)
    return gen, kill, phi_defs


def _lazy_set_field(name: str) -> property:
    storage = "_" + name

    def getter(self):
        self._ensure_sets()
        return self.__dict__[storage]

    def setter(self, value):
        self.__dict__[storage] = value

    return property(getter, setter)


class LazySetsLiveness(Liveness):
    """Liveness whose Register-set views materialize on first access.

    The allocation loop consumes only the mask tables; the set dicts
    serve SSA construction, the reference oracles, and tests, so their
    (batched, vectorized)
    materialization until something actually reads one — any access
    fills all four dicts, after which they behave exactly like the
    eagerly-built ones (same contents, same block insertion order).
    """

    live_in = _lazy_set_field("live_in")
    live_out = _lazy_set_field("live_out")
    use = _lazy_set_field("use")
    defs = _lazy_set_field("defs")

    def mark_pending(self) -> None:
        self.__dict__["_pending_sets"] = True

    def _ensure_sets(self) -> None:
        if not self.__dict__.get("_pending_sets"):
            return
        self.__dict__["_pending_sets"] = False
        labels = list(self.use_mask)
        masks: list[int] = []
        in_m, out_m = self.live_in_mask, self.live_out_mask
        g_m, k_m = self.use_mask, self.defs_mask
        for label in labels:
            masks.append(in_m[label])
            masks.append(out_m[label])
            masks.append(g_m[label])
            masks.append(k_m[label])
        sets = matrix.sets_of_masks(self.index, masks)
        d = self.__dict__
        li, lo, us, df = d["_live_in"], d["_live_out"], d["_use"], d["_defs"]
        for i, label in enumerate(labels):
            li[label] = sets[4 * i]
            lo[label] = sets[4 * i + 1]
            us[label] = sets[4 * i + 2]
            df[label] = sets[4 * i + 3]


def compute_liveness(func: Function, cfg: CFG | None = None) -> Liveness:
    """Block liveness: one pack walk plus the bit-matrix fixed point."""
    if cfg is None:
        cfg = build_cfg(func)
    pack = matrix.build_pack(func)
    with phase("solve"):
        live_in, live_out = matrix.solve_liveness(pack, cfg)
    result = LazySetsLiveness(index=pack.index, live_in_mask=live_in,
                              live_out_mask=live_out, use_mask=pack.gen,
                              defs_mask=pack.kill, pack=pack)
    result.mark_pending()
    return result


def instruction_liveness_masks(
    func: Function, liveness: Liveness
) -> tuple[RegisterIndex, dict[int, int]]:
    """Live masks *after* each instruction, keyed by ``id(instr)``.

    Requires a :func:`compute_liveness`-built ``liveness`` (one carrying
    the dense index and mask tables).
    """
    index = liveness.index
    assert index is not None, "liveness was not built by compute_liveness"
    bit_of = index.bit_of
    out_mask = liveness.live_out_mask
    after: dict[int, int] = {}
    for blk in func.blocks:
        live = out_mask[blk.label]
        for instr in reversed(blk.instrs):
            after[id(instr)] = live
            for d in instr.defs():
                if isinstance(d, (VReg, PReg)):
                    live &= ~bit_of(d)
            if not isinstance(instr, Phi):
                for u in instr.uses():
                    if isinstance(u, (VReg, PReg)):
                        live |= bit_of(u)
    return index, after


def instruction_liveness(
    func: Function, liveness: Liveness
) -> dict[int, set[Register]]:
    """Live sets *after* each instruction, keyed by ``id(instr)``.

    One backward scan per block; used by the interference builder and by
    the cycle evaluator's call-crossing accounting.  Identical masks
    share one materialized set (consumers treat the sets as read-only).
    """
    index, after = instruction_liveness_masks(func, liveness)
    set_of = index.set_of
    cache: dict[int, set[Register]] = {}
    out: dict[int, set[Register]] = {}
    for key, mask in after.items():
        materialized = cache.get(mask)
        if materialized is None:
            materialized = cache[mask] = set_of(mask)
        out[key] = materialized
    return out
