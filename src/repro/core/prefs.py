"""Preference extraction: build the RPG by "examining the intermediate
code" (Section 5.1).

The four preference types of Section 3.1, with their sources in the IR:

1. **Dedicated** — moves between a live range and a physical register
   (parameter setup, return values): ``COALESCE`` edges to the register.
2. **Limited** — byte loads can only avoid a zero-extension in the byte-
   capable subset: ``GROUP`` edges to that subset.
3. **Preferred** — volatile / non-volatile placement: ``GROUP`` edges to
   each half of the file, weighted by the Lueh–Gross-style benefit.
4. **Dependent** — copy-related live ranges (``COALESCE``) and paired-load
   destinations (``SEQ_NEXT``/``SEQ_PREV``).

Per the appendix, a coalesce edge exists in the direction of ``V`` only
when honoring it actually zeroes the move's cost for ``V``: the move
defines ``V``, or lastly uses it.  This is why Figure 7(c) draws v3→v0
but no v0→v3 edge.

:class:`PreferenceConfig` switches each type on or off — "full
preferences" vs. the "only coalescing" ablation of Section 6, plus the
per-type ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costs import (
    CALLEE_SAVE_COST,
    SAVE_RESTORE_COST,
    CostModel,
    Strength,
    inst_cost,
)
from repro.core.pairs import find_paired_loads
from repro.ir.function import Function
from repro.ir.instructions import Load, Move
from repro.ir.values import PReg, RegClass, VReg
from repro.core.rpg import PrefEdge, PrefKind, RegGroup, RegisterPreferenceGraph
from repro.target.machine import TargetMachine

__all__ = ["PreferenceConfig", "build_rpg", "volatility_groups"]


@dataclass(frozen=True)
class PreferenceConfig:
    """Which preference types the RPG carries."""

    coalesce: bool = True        # type 4 (live-range to live-range)
    dedicated: bool = True       # type 1 (live-range to physical register)
    paired_loads: bool = True    # type 4 (sequential+/-)
    volatility: bool = True      # type 3 (volatile / non-volatile groups)
    byte_loads: bool = True      # type 2 (limited register subsets)

    @staticmethod
    def full() -> "PreferenceConfig":
        return PreferenceConfig()

    @staticmethod
    def only_coalescing() -> "PreferenceConfig":
        """The Section 6.1 ablation: coalescing preferences only."""
        return PreferenceConfig(
            coalesce=True, dedicated=True,
            paired_loads=False, volatility=False, byte_loads=False,
        )


def volatility_groups(
    machine: TargetMachine, rclass: RegClass
) -> tuple[RegGroup, RegGroup]:
    regfile = machine.file(rclass)
    return (
        RegGroup("volatile", rclass, frozenset(regfile.volatile)),
        RegGroup("non-volatile", rclass, frozenset(regfile.nonvolatile)),
    )


def build_rpg(
    func: Function,
    machine: TargetMachine,
    costs: CostModel,
    config: PreferenceConfig | None = None,
) -> RegisterPreferenceGraph:
    """Build the Register Preference Graph of a lowered function."""
    config = config or PreferenceConfig.full()
    rpg = RegisterPreferenceGraph()

    # --- coalesce / dedicated edges (move instructions) -----------------
    for blk in func.blocks:
        for instr in blk.instrs:
            if isinstance(instr, Move):
                _add_move_edges(rpg, costs, instr, config)
            elif isinstance(instr, Load) and instr.width == "byte" \
                    and config.byte_loads:
                _add_byte_load_edge(rpg, machine, costs, instr)

    # --- paired loads ----------------------------------------------------
    if config.paired_loads and machine.has_paired_loads:
        for cand in find_paired_loads(func):
            d1, d2 = cand.dsts()
            if isinstance(d1, VReg) and isinstance(d2, VReg):
                saving1 = costs.paired_load_saving(d1, cand.first)
                saving2 = costs.paired_load_saving(d2, cand.second)
                rpg.add(PrefEdge(d1, PrefKind.SEQ_PREV, d2,
                                 costs.placement_strength(d1, saving1)))
                rpg.add(PrefEdge(d2, PrefKind.SEQ_NEXT, d1,
                                 costs.placement_strength(d2, saving2)))

    # --- volatility groups ------------------------------------------------
    if config.volatility:
        groups = {
            rclass: volatility_groups(machine, rclass)
            for rclass in machine.files
        }
        # Str = Spill_Cost - Call_Cost, read straight from the cost
        # tables (the arithmetic of CostModel.strength_(non)volatile).
        spill_costs = costs.spill_costs
        cross = costs.cross_table
        callee_save = float(CALLEE_SAVE_COST)
        vregs = [r for r in costs.index.regs if isinstance(r, VReg)]
        for v in sorted(vregs, key=lambda r: r.id):
            vol_group, nonvol_group = groups[v.rclass]
            spill = spill_costs.get(v, 0.0)
            rpg.add(PrefEdge(
                v, PrefKind.GROUP, vol_group,
                Strength.scalar(
                    spill - SAVE_RESTORE_COST * cross.get(v, 0.0)),
            ))
            rpg.add(PrefEdge(
                v, PrefKind.GROUP, nonvol_group,
                Strength.scalar(spill - callee_save),
            ))
    return rpg


def _add_move_edges(
    rpg: RegisterPreferenceGraph,
    costs: CostModel,
    mv: Move,
    config: PreferenceConfig,
) -> None:
    dst, src = mv.dst, mv.src
    if isinstance(dst, PReg) and isinstance(src, PReg):
        return
    # Direction dst -> src: the move defines dst, so honoring always
    # zeroes its cost for dst.
    if isinstance(dst, VReg):
        wanted = config.dedicated if isinstance(src, PReg) else config.coalesce
        if wanted:
            saving = costs.move_saving(dst, mv)
            rpg.add(PrefEdge(dst, PrefKind.COALESCE, src,
                             costs.placement_strength(dst, saving)))
    # Direction src -> dst.  The appendix only credits this edge when the
    # move *lastly* uses src, and Figure 7(c) draws it that way; but a
    # copy whose source lives on is still eliminated when both ends share
    # a register (the dst-src interference edge is omitted at the copy),
    # and the aggressive coalescers exploit exactly that.  Without the
    # edge the integrated selector can never try, so we add it with the
    # move's cost as the saving in both cases.  The two directions then
    # both credit the same move — acceptable, since strengths rank
    # choices rather than summing into a total.
    if isinstance(src, VReg):
        wanted = config.dedicated if isinstance(dst, PReg) else config.coalesce
        if wanted:
            saving = inst_cost(mv) * costs.freq_of(mv)
            rpg.add(PrefEdge(src, PrefKind.COALESCE, dst,
                             costs.placement_strength(src, saving)))


def _add_byte_load_edge(
    rpg: RegisterPreferenceGraph,
    machine: TargetMachine,
    costs: CostModel,
    load: Load,
) -> None:
    dst = load.dst
    if not isinstance(dst, VReg):
        return
    regfile = machine.file(dst.rclass)
    if not regfile.byte_load_regs:
        return
    group = RegGroup("byte-capable", dst.rclass,
                     frozenset(regfile.byte_load_regs))
    saving = costs.byte_load_saving(dst, load)
    rpg.add(PrefEdge(dst, PrefKind.GROUP, group,
                     costs.placement_strength(dst, saving)))
