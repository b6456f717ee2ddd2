"""Frequency-weighted cycle-cost evaluation of allocated code.

This is the stand-in for the paper's elapsed-time measurements on the
Itanium testbed.  It charges exactly the appendix's cost model:

* ``Inst_Cost`` per instruction times ``Freq_Fact`` (loads 2, others 1),
* spill code at load 2 / store 1,
* a byte load whose destination is outside the byte-capable subset pays
  an extra zero-extension cycle (preference type 2),
* the *second* load of a fusible pair is free when the two destination
  registers are adjacent (type 4, paired loads),
* each volatile register live across a call costs ``3 * freq`` in
  caller-side save/restore (type 3),
* each distinct non-volatile register the function touches costs 2 in
  callee-side save/restore,
* a flat per-call overhead (identical for every allocator; it only sets
  the scale of relative numbers, like the JIT's fixed call machinery).

All components are reported separately so the benchmarks can show *why*
an allocator wins, not just that it does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.liveness import compute_liveness
from repro.cfg.analysis import build_cfg
from repro.cfg.loops import compute_loops
from repro.core.pairs import find_paired_loads
from repro.ir.function import Function
from repro.ir.instructions import (
    Call,
    Load,
    Move,
    SpillLoad,
    SpillStore,
)
from repro.ir.values import PReg
from repro.profiling import phase
from repro.target.machine import TargetMachine

__all__ = ["CycleReport", "estimate_cycles", "CALL_OVERHEAD"]

#: Flat machinery cost per call site (identical across allocators).
CALL_OVERHEAD = 5.0


@dataclass(eq=False)
class CycleReport:
    """Cost breakdown of one allocated function (or a whole module)."""

    op_cycles: float = 0.0
    move_cycles: float = 0.0
    spill_cycles: float = 0.0
    caller_save_cycles: float = 0.0
    callee_save_cycles: float = 0.0
    byte_penalty_cycles: float = 0.0
    call_overhead_cycles: float = 0.0
    paired_saved_cycles: float = 0.0
    #: static counters
    paired_loads_fused: int = 0
    moves_remaining: int = 0
    spill_instructions: int = 0

    @property
    def total(self) -> float:
        return (
            self.op_cycles
            + self.move_cycles
            + self.spill_cycles
            + self.caller_save_cycles
            + self.callee_save_cycles
            + self.byte_penalty_cycles
            + self.call_overhead_cycles
        )

    def add(self, other: "CycleReport") -> None:
        """Accumulate another report into this one (module totals)."""
        self.op_cycles += other.op_cycles
        self.move_cycles += other.move_cycles
        self.spill_cycles += other.spill_cycles
        self.caller_save_cycles += other.caller_save_cycles
        self.callee_save_cycles += other.callee_save_cycles
        self.byte_penalty_cycles += other.byte_penalty_cycles
        self.call_overhead_cycles += other.call_overhead_cycles
        self.paired_saved_cycles += other.paired_saved_cycles
        self.paired_loads_fused += other.paired_loads_fused
        self.moves_remaining += other.moves_remaining
        self.spill_instructions += other.spill_instructions

    def describe(self) -> str:
        parts = [
            f"total={self.total:.0f}",
            f"ops={self.op_cycles:.0f}",
            f"moves={self.move_cycles:.0f}",
            f"spills={self.spill_cycles:.0f}",
            f"caller-save={self.caller_save_cycles:.0f}",
            f"callee-save={self.callee_save_cycles:.0f}",
            f"byte-zext={self.byte_penalty_cycles:.0f}",
            f"paired-saved={self.paired_saved_cycles:.0f}",
        ]
        return "  ".join(parts)


def estimate_cycles(func: Function, machine: TargetMachine) -> CycleReport:
    """Evaluate fully-allocated ``func`` under the appendix cost model."""
    report = CycleReport()
    # Named parent phase: the liveness recomputation on the allocated
    # code nests its sub-phases here instead of leaking to the root.
    with phase("cycles"):
        cfg = build_cfg(func)
        loops = compute_loops(cfg)
        liveness = compute_liveness(func, cfg)

    # Fused paired loads: the adjacency check runs on physical registers.
    fused_second_loads: set[int] = set()
    if machine.has_paired_loads:
        for cand in find_paired_loads(func):
            d1, d2 = cand.dsts()
            if (
                isinstance(d1, PReg)
                and isinstance(d2, PReg)
                and d2.index == d1.index + 1
            ):
                fused_second_loads.add(id(cand.second))
                report.paired_loads_fused += 1

    # One backward walk per block keeps the live set as a mask over the
    # liveness index; the touched and volatile registers are masks too.
    index = liveness.index
    ids = index.ids
    volatile_mask = nonvolatile_mask = 0
    for i, reg in enumerate(index.regs):
        if isinstance(reg, PReg):
            if machine.is_volatile(reg):
                volatile_mask |= 1 << i
            else:
                nonvolatile_mask |= 1 << i
    touched = 0
    for blk in func.blocks:
        freq = loops.freq(blk.label)
        live = liveness.live_out_mask[blk.label]
        for instr in reversed(blk.instrs):
            dmask = umask = 0
            for d in instr.defs():
                dmask |= 1 << ids[d]
            for u in instr.used_regs():
                umask |= 1 << ids[u]
            touched |= dmask | umask
            after = live
            live = (live & ~dmask) | umask

            if isinstance(instr, Load):
                if id(instr) in fused_second_loads:
                    report.paired_saved_cycles += 2.0 * freq
                    continue
                report.op_cycles += 2.0 * freq
                if instr.width == "byte":
                    regfile = machine.file(instr.dst.rclass)
                    if (
                        regfile.byte_load_regs
                        and instr.dst not in regfile.byte_load_regs
                    ):
                        report.byte_penalty_cycles += 1.0 * freq
            elif isinstance(instr, SpillLoad):
                report.spill_cycles += 2.0 * freq
                report.spill_instructions += 1
            elif isinstance(instr, SpillStore):
                report.spill_cycles += 1.0 * freq
                report.spill_instructions += 1
            elif isinstance(instr, Move):
                report.move_cycles += 1.0 * freq
                report.moves_remaining += 1
            elif isinstance(instr, Call):
                report.call_overhead_cycles += CALL_OVERHEAD * freq
                crossing = after & ~dmask & volatile_mask
                report.caller_save_cycles += (
                    3.0 * freq * crossing.bit_count())
            else:
                report.op_cycles += 1.0 * freq

    report.callee_save_cycles = 2.0 * (touched & nonvolatile_mask).bit_count()
    return report
