"""The paper's appendix cost model.

    Str(V, P)        = Mem_Cost(V) - Ideal_Cost(V, P)
    Mem_Cost(V)      = Spill_Cost(V) + Op_Cost(V)
    Spill_Cost(V)    = sum 2*freq over uses + sum 1*freq over defs
    Op_Cost(V)       = sum Inst_Cost*freq over uses and defs
                       (Inst_Cost: 2 for loads, undefined for calls, else 1)
    Ideal_Cost(V, P) = Call_Cost(V) + Ideal_Op_Cost(V, P)
    Call_Cost(V)     = sum 3*freq over calls crossed    (volatile target)
                     = 2                                 (non-volatile target)
    Ideal_Op_Cost    = Op_Cost minus the full Inst_Cost of instructions
                       the preference makes free (the eliminated move, the
                       fused second load, the avoided zero-extension)

Because ``Call_Cost`` depends on the volatility of the register finally
chosen, a strength is a *pair* (value on a volatile register, value on a
non-volatile register) — Figure 7 annotates v3's coalesce edge exactly
that way ("40 when coalescing to a volatile register, but 38 for a
non-volatile").  :class:`Strength` carries the pair.

Where the numbers come from: ``Spill_Cost`` is the round's shared
metric (``RoundAnalyses.spill_costs``, the one every allocator uses),
and one backward walk per block over the liveness masks gives each
vreg's frequency-weighted call crossings and each move's live-after
mask.  ``Op_Cost`` is summed on demand; no allocator reads it.

Checked against every number given in the paper's Figure 7: v4 prefers
non-volatile with strength 28; v3's coalesce edge is 40/38; v1–v2's
sequential edges are 50/48.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.indexing import iter_bits
from repro.analysis.liveness import Liveness, compute_liveness
from repro.cfg.analysis import CFG, build_cfg
from repro.cfg.loops import LoopInfo, compute_loops
from repro.ir.function import Function
from repro.ir.instructions import Call, Instruction, Load, Move, Phi, SpillLoad
from repro.ir.values import PReg, VReg
from repro.target.machine import TargetMachine

__all__ = [
    "SAVE_RESTORE_COST",
    "CALLEE_SAVE_COST",
    "inst_cost",
    "Strength",
    "CostModel",
]

#: Appendix: Save_Restore_Cost(I) is always 3 (per frequency-weighted call
#: crossing, volatile placement).
SAVE_RESTORE_COST = 3
#: Appendix: Callee_Save_Cost(V) is always 2 (non-volatile placement).
CALLEE_SAVE_COST = 2


def inst_cost(instr: Instruction) -> float:
    """Appendix ``Inst_Cost``: 2 for loads, undefined (0) for calls, 1 else."""
    if isinstance(instr, (Load, SpillLoad)):
        return 2.0
    if isinstance(instr, Call):
        return 0.0
    return 1.0


@dataclass(frozen=True, slots=True)
class Strength:
    """Preference strength as a (volatile, non-volatile) pair."""

    vol: float
    nonvol: float

    @property
    def best(self) -> float:
        return max(self.vol, self.nonvol)

    @property
    def worst(self) -> float:
        return min(self.vol, self.nonvol)

    def for_reg(self, machine: TargetMachine, reg: PReg) -> float:
        return self.vol if machine.is_volatile(reg) else self.nonvol

    @staticmethod
    def scalar(value: float) -> "Strength":
        return Strength(value, value)

    def __str__(self) -> str:
        if self.vol == self.nonvol:
            return f"{self.vol:g}"
        return f"vol:{self.vol:g}, n-vol:{self.nonvol:g}"


class CostModel:
    """Per-live-range costs of one (lowered, renumbered) function.

    ``spill_costs`` is the round's table (``RoundContext.spill_costs``);
    when omitted, :func:`~repro.regalloc.costs.compute_spill_costs`.
    """

    def __init__(
        self,
        func: Function,
        machine: TargetMachine,
        cfg: CFG | None = None,
        loops: LoopInfo | None = None,
        liveness: Liveness | None = None,
        spill_costs: dict[VReg, float] | None = None,
    ):
        self.func = func
        self.machine = machine
        cfg = cfg or build_cfg(func)
        self.loops = loops = loops or compute_loops(cfg)
        liveness = liveness or compute_liveness(func, cfg)
        if spill_costs is None:
            # Imported here: repro.regalloc's package init imports this
            # module (through the call-cost allocator).
            from repro.regalloc.costs import compute_spill_costs
            spill_costs = compute_spill_costs(func, loops, cfg)
        self.spill_costs = spill_costs
        index = self.index = liveness.index
        ids = index.ids
        vreg_mask = ~index.preg_mask

        crossings: list[int] = []
        move_after: dict[int, int] = {}
        freq_of: dict[int, int] = {}
        cross: dict[int, float] = {}
        out_mask = liveness.live_out_mask
        for blk in func.blocks:
            freq = loops.freq(blk.label)
            live = out_mask[blk.label]
            for instr in reversed(blk.instrs):
                dmask = 0
                for d in instr.defs():
                    dmask |= 1 << ids[d]
                if isinstance(instr, Move):
                    move_after[id(instr)] = live
                    freq_of[id(instr)] = freq
                elif isinstance(instr, Load):
                    freq_of[id(instr)] = freq
                elif isinstance(instr, Call):
                    crossing = live & ~dmask & vreg_mask
                    crossings.append(crossing)
                    for i in iter_bits(crossing):
                        cross[i] = cross.get(i, 0.0) + freq
                live &= ~dmask
                if not isinstance(instr, Phi):
                    for u in instr.uses():
                        if isinstance(u, (VReg, PReg)):
                            live |= 1 << ids[u]
        #: per call site, the mask of vregs live across it
        self.call_crossings = crossings
        #: live-after mask of each move, keyed by ``id(move)``
        self._move_after = move_after
        #: block frequency of each move and load, keyed by ``id(instr)``
        self._freq_of_instr = freq_of
        #: frequency-weighted call crossings per vreg (absent: none)
        self.cross_table = {index.regs[i]: c for i, c in cross.items()}

    # ------------------------------------------------------------------
    # appendix quantities

    def freq_of(self, instr: Instruction) -> int:
        """Block frequency of a move or load of the function."""
        return self._freq_of_instr.get(id(instr), 1)

    def spill_cost(self, v: VReg) -> float:
        return self.spill_costs.get(v, 0.0)

    def op_cost(self, v: VReg) -> float:
        """Appendix ``Op_Cost``, summed on demand (no allocator reads it)."""
        total = 0.0
        for blk in self.func.blocks:
            freq = self.loops.freq(blk.label)
            for instr in blk.instrs:
                n = instr.used_regs().count(v) + instr.defs().count(v)
                total += n * inst_cost(instr) * freq
        return total

    def mem_cost(self, v: VReg) -> float:
        return self.spill_cost(v) + self.op_cost(v)

    def cross_freq(self, v: VReg) -> float:
        """Frequency-weighted number of calls this live range crosses."""
        return self.cross_table.get(v, 0.0)

    def crosses_calls(self, v: VReg) -> bool:
        return v in self.cross_table

    def call_cost(self, v: VReg, volatile: bool) -> float:
        if volatile:
            return SAVE_RESTORE_COST * self.cross_freq(v)
        return float(CALLEE_SAVE_COST)

    # ------------------------------------------------------------------
    # preference strengths

    def placement_strength(self, v: VReg, saving: float = 0.0) -> Strength:
        """``Str(V, P)`` for a preference saving ``saving`` op cycles.

        ``Str = Spill_Cost + saving - Call_Cost`` with ``Call_Cost``
        depending on the volatility of the register finally chosen, hence
        a :class:`Strength` pair.
        """
        base = self.spill_cost(v) + saving
        return Strength(
            vol=base - self.call_cost(v, volatile=True),
            nonvol=base - self.call_cost(v, volatile=False),
        )

    def strength_volatile(self, v: VReg) -> float:
        """Strength of a *prefers volatile registers* preference."""
        return self.spill_cost(v) - self.call_cost(v, volatile=True)

    def strength_nonvolatile(self, v: VReg) -> float:
        """Strength of a *prefers non-volatile registers* preference."""
        return self.spill_cost(v) - self.call_cost(v, volatile=False)

    def move_saving(self, v: VReg, mv: Move) -> float:
        """Op cycles saved when ``mv`` disappears, attributed to ``v``.

        Appendix: the move's cost is zeroed "if I is a move and I defines
        V or I *lastly* uses V" — i.e. V dies at the copy, so giving both
        ends one register removes the instruction.
        """
        if mv.dst == v:
            return inst_cost(mv) * self.freq_of(mv)
        if mv.src == v and not (
                self._move_after[id(mv)] >> self.index.ids[v]) & 1:
            return inst_cost(mv) * self.freq_of(mv)
        return 0.0

    def paired_load_saving(self, v: VReg, load: Load) -> float:
        """Op cycles saved when ``load`` (fetching ``v``) fuses into a pair."""
        if load.dst != v:
            return 0.0
        return inst_cost(load) * self.freq_of(load)

    def byte_load_saving(self, v: VReg, load: Load) -> float:
        """Zero-extension cycles avoided by a byte-capable register."""
        if load.dst != v or load.width != "byte":
            return 0.0
        return 1.0 * self.freq_of(load)
