"""Baseline spill-cost metric shared by every allocator.

The paper's appendix:

    Spill_Cost(V) = sum(Load_Cost(Using(V))  * Freq_Fact(Using(V)))
                  + sum(Store_Cost(Defining(V)) * Freq_Fact(Defining(V)))

with ``Load_Cost = 2`` and ``Store_Cost = 1`` per instruction, and
``Freq_Fact`` from loop analysis.  "For all algorithms, we used the same
heuristics based on the metric in Section 5.1 to decide the spill
candidate" — so this module is used by the baselines and by the
preference-directed allocator alike (the latter adds the preference
strengths on top, in :mod:`repro.core.costs`).
"""

from __future__ import annotations

from repro.cfg.analysis import CFG, build_cfg
from repro.cfg.loops import LoopInfo, compute_loops
from repro.ir.function import Function
from repro.ir.values import VReg

__all__ = ["LOAD_COST", "STORE_COST", "compute_spill_costs"]

#: Appendix: Load_Cost(I) is 2, Store_Cost(I) is 1.
LOAD_COST = 2
STORE_COST = 1


def compute_spill_costs(
    func: Function,
    loops: LoopInfo | None = None,
    cfg: CFG | None = None,
) -> dict[VReg, float]:
    """Frequency-weighted spill cost of every virtual register.

    Each block's contribution is summed on its own and then added to
    the totals.  Every term is an integer-valued float (loop
    frequencies are powers of ten), so the grouping cannot matter.
    """
    if cfg is None:
        cfg = build_cfg(func)
    if loops is None:
        loops = compute_loops(cfg)
    totals: dict[VReg, float] = {}
    for blk in func.blocks:
        freq = loops.freq(blk.label)
        local: dict[VReg, float] = {}
        for instr in blk.instrs:
            for u in instr.uses():
                if isinstance(u, VReg):
                    local[u] = local.get(u, 0.0) + LOAD_COST * freq
            for d in instr.defs():
                if isinstance(d, VReg):
                    local[d] = local.get(d, 0.0) + STORE_COST * freq
        for v, c in local.items():
            totals[v] = totals.get(v, 0.0) + c
    for param in func.params:
        if isinstance(param, VReg):
            totals.setdefault(param, 0.0)
    return totals
