"""Spill-stress workload: large CFGs with *localized* register pressure.

The SPECjvm98-like profiles keep a global pool of values live across the
whole function, so under a squeezed machine *every* block sees spill
code.  Real hot methods are not like that: pressure concentrates in a
few inner loops while the surrounding code idles well under the
register budget.  This workload reproduces that shape on purpose: many
spill rounds over a large CFG, each of them re-analyzing the whole
function although spill code lands in only a few blocks — the
workload of the spill-round loop and of the edit-chain bench.

Each function is a long chain of counted-loop segments.  Most segments
are *cold* (a handful of simultaneously-live temporaries, colorable on
any machine we bench); every ``hot_every``-th segment is *hot*: its
loop body materializes ``hot_pressure`` loads and keeps them all live
into a reduction, far exceeding a squeezed register file.  Only the
running accumulator, the address base, and each segment's loop counter
cross segment boundaries, so spilled webs — and the blocks spill code
rewrites — stay confined to the hot segments.
"""

from __future__ import annotations

from repro.ir.builder import IRBuilder
from repro.ir.function import Function, Module
from repro.ir.values import Const, VReg

__all__ = ["spill_stress_function", "spill_stress_module"]


def _segment(b: IRBuilder, acc: VReg, base: VReg, seg: int,
             pressure: int, chain: int, trips: int) -> VReg:
    """One counted loop; returns the new accumulator.

    ``pressure`` values are loaded and held simultaneously live through
    a pairwise reduction; ``chain`` then appends that many *stores* of
    the reduced value.  Stores define nothing, so they add instructions
    — liveness/interference/cost scans pay for every one — while the
    block's register population stays a handful of entries.  Cold
    segments are long store runs at trivial pressure: plenty for each
    round's re-analysis to scan, and nothing for the spiller.
    """
    counter = b.const(0)
    head = f"seg{seg}_head"
    done = f"seg{seg}_done"
    b.jump(head)
    b.block(head)
    temps = [
        b.load(base, offset=4 * ((seg * 31 + i) % 64))
        for i in range(pressure)
    ]
    # Pairwise reduction keeps every temp live until its pair is folded,
    # which is what actually holds the pressure at `pressure` instead of
    # letting a linear fold retire temps as fast as they are defined.
    while len(temps) > 1:
        temps = [
            b.add(temps[i], temps[i + 1]) if i + 1 < len(temps)
            else temps[i]
            for i in range(0, len(temps), 2)
        ]
    value = temps[0]
    for i in range(chain):
        b.store(base, 4 * ((seg * 17 + i) % 64), value)
    new_acc = b.vreg(acc.rclass)
    b.binop("xor", acc, value, dst=new_acc)
    b.binop("add", counter, Const(1), dst=counter)
    cond = b.binop("cmplt", counter, Const(trips))
    b.branch(cond, head, done)
    b.block(done)
    return new_acc


def spill_stress_function(
    name: str = "spillstress",
    n_segments: int = 24,
    hot_every: int = 6,
    hot_pressure: int = 20,
    cold_pressure: int = 3,
    cold_chain: int = 40,
    trips: int = 3,
) -> Function:
    """A segment-chain function whose spills concentrate in hot loops."""
    b = IRBuilder(name, n_params=1)
    base = b.param(0)
    acc = b.move(base)
    for seg in range(n_segments):
        hot = seg % hot_every == 0
        acc = _segment(b, acc, base, seg,
                       hot_pressure if hot else cold_pressure,
                       0 if hot else cold_chain, trips)
    b.ret(acc)
    return b.finish()


def spill_stress_module(n_functions: int = 4, **kwargs) -> Module:
    """A module of identical-shape (but distinct) spill-stress functions."""
    module = Module("spillstress")
    for i in range(n_functions):
        module.add(spill_stress_function(f"spillstress_f{i}", **kwargs))
    return module
