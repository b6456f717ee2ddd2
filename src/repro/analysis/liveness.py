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
masks, and :func:`repro.analysis.matrix.solve_liveness` drains a block
worklist over them.  The direct set-based formulation is the test
oracle in ``tests/oracles.py``; the property suite asserts the two
agree set-for-set on randomized CFGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import matrix
from repro.analysis.indexing import RegisterIndex
from repro.cfg.analysis import CFG, build_cfg
from repro.ir.function import Function
from repro.ir.instructions import Phi
from repro.ir.values import PReg, Register, VReg
from repro.profiling import phase

__all__ = [
    "Liveness",
    "compute_liveness",
    "instruction_liveness_masks",
]


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
    #: bitmask twins of ``use``/``defs`` (the gen/kill summaries)
    use_mask: dict[str, int] = field(default_factory=dict)
    defs_mask: dict[str, int] = field(default_factory=dict)
    #: the :class:`~repro.analysis.matrix.FunctionPack` this liveness was
    #: computed from (None when built by hand).  The interference
    #: builder reuses it to skip re-walking the function.
    pack: object | None = field(default=None, repr=False)


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
    materialization waits until something actually reads one — any
    access fills all four dicts, after which they behave exactly like
    the eagerly-built ones (same contents, same block insertion order).
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
        set_of = self.index.set_of
        d = self.__dict__
        li, lo, us, df = d["_live_in"], d["_live_out"], d["_use"], d["_defs"]
        in_m, out_m = self.live_in_mask, self.live_out_mask
        for label, gen in self.use_mask.items():
            li[label] = set_of(in_m[label])
            lo[label] = set_of(out_m[label])
            us[label] = set_of(gen)
            df[label] = set_of(self.defs_mask[label])


def compute_liveness(func: Function, cfg: CFG | None = None) -> Liveness:
    """Block liveness: one pack walk plus the bitmask fixed point."""
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
