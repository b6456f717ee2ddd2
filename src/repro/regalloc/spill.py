"""Spill-code insertion: live-range splitting around defs and uses.

Chaitin's scheme: for a spilled live range, "spill out the value after its
definitions and spill in before its uses".  Each reload/store goes through
a fresh ``no_spill`` temporary so the residual live ranges are one
instruction long and can never be chosen for spilling again (guaranteeing
termination of the build→color→spill loop).

With ``rematerialize=True`` a spilled live range whose every definition
materializes one identical constant is *rematerialized* instead (Briggs
et al. [3], the technique whose protection motivated conservative
coalescing): uses re-emit the constant and no slot is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.instructions import ConstInst, Instruction, SpillLoad, SpillStore
from repro.ir.values import VReg

__all__ = ["SpillReport", "insert_spill_code",
           "rematerializable_values"]


@dataclass(eq=False)
class SpillReport:
    """What spill insertion did in one round."""

    slots: dict[VReg, int] = field(default_factory=dict)
    loads_inserted: int = 0
    stores_inserted: int = 0
    #: spilled live ranges turned into constant re-emissions instead
    rematerialized: dict[VReg, object] = field(default_factory=dict)


def rematerializable_values(func: Function,
                            spilled: set[VReg]) -> dict[VReg, object]:
    """Spilled vregs whose every def is ``ConstInst`` of one value."""
    values: dict[VReg, object] = {}
    blocked: set[VReg] = set(func.params)
    for _, instr in func.instructions():
        for d in instr.defs():
            if not isinstance(d, VReg) or d not in spilled:
                continue
            if isinstance(instr, ConstInst) and (
                d not in values or values[d] == instr.value
            ):
                values.setdefault(d, instr.value)
            else:
                blocked.add(d)
    return {v: val for v, val in values.items()
            if v not in blocked and v in spilled}


def insert_spill_code(func: Function, spilled: set[VReg],
                      rematerialize: bool = False) -> SpillReport:
    """Split every live range in ``spilled``; rewrites ``func`` in place."""
    report = SpillReport()
    if rematerialize:
        report.rematerialized = rematerializable_values(func, spilled)
        spilled = spilled - set(report.rematerialized)
    for v in sorted(spilled, key=lambda r: r.id):
        report.slots[v] = func.new_slot()

    remat = report.rematerialized
    for blk in func.blocks:
        rewritten: list[Instruction] = []
        for instr in blk.instrs:
            # A def of a rematerialized constant disappears outright.
            if isinstance(instr, ConstInst) and instr.dst in remat:
                continue
            used = [u for u in instr.used_regs()
                    if isinstance(u, VReg)
                    and (u in report.slots or u in remat)]
            defined = [d for d in instr.defs()
                       if isinstance(d, VReg) and d in report.slots]
            use_map = {}
            for v in _unique(used):
                tmp = func.new_vreg(v.rclass, name=_tmp_name(v, "r"),
                                    no_spill=True)
                if v in remat:
                    rewritten.append(ConstInst(tmp, remat[v]))
                else:
                    rewritten.append(SpillLoad(tmp, report.slots[v]))
                    report.loads_inserted += 1
                use_map[v] = tmp
            if use_map:
                instr.replace_uses(use_map)
            rewritten.append(instr)
            for v in _unique(defined):
                tmp = func.new_vreg(v.rclass, name=_tmp_name(v, "s"),
                                    no_spill=True)
                instr.replace_defs({v: tmp})
                rewritten.append(SpillStore(report.slots[v], tmp))
                report.stores_inserted += 1
        blk.instrs = rewritten

    # Parameters are defined implicitly at entry; store their incoming
    # value so reloads see it.  Inserted after the rewrite so the store
    # reads the parameter register itself, not a reload.  (Lowered
    # functions define parameters via explicit entry moves instead, so
    # this only fires pre-lowering.)
    entry_stores: list[Instruction] = []
    for param in func.params:
        if param in report.slots:
            entry_stores.append(SpillStore(report.slots[param], param))
            report.stores_inserted += 1
    if entry_stores:
        func.entry.instrs[0:0] = entry_stores
    return report


def _unique(regs: list[VReg]) -> list[VReg]:
    seen: set[VReg] = set()
    out: list[VReg] = []
    for r in regs:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _tmp_name(v: VReg, kind: str) -> str:
    base = v.name or f"{v.rclass.prefix()}{v.id}"
    return f"{base}.{kind}"
