"""Interference-graph construction.

Chaitin's definition with the standard refinements:

* at every definition point, the defined register interferes with every
  register live *after* the instruction (this covers dead definitions,
  which still clobber), and with the other registers defined by the same
  instruction;
* for a copy ``dst = src`` the edge ``dst–src`` is *not* added (they may
  share a register; that is the whole point of coalescing);
* registers of different classes never interfere (separate files);
* physical–physical edges are implicit and not stored.

The builder accumulates adjacency as *bitmasks* over the dense register
index that liveness computed: one backward scan per block (over the
pre-packed per-instruction masks of liveness's
:class:`~repro.analysis.matrix.FunctionPack`) keeps the live set as an
int, and each definition point ORs the whole live mask into the
definer's adjacency row in one operation.  Rows are mirrored into
symmetric ones at the end (:func:`~repro.analysis.matrix.mirror_rows`).
The per-class coloring graphs (:func:`~repro.regalloc.igraph.build_alloc_graph`)
and the whole coloring core run on those rows; the public dict-of-sets
``adjacency`` is a lazy view for the verifier, the visualizer and
Park–Moon, materialized on first access and cached.
The direct set-based builder is the property-test oracle in
``tests/oracles.py``.

The result also collects the function's move instructions — the
coalescing worklist every allocator variant starts from.
"""

from __future__ import annotations

from repro.analysis import matrix
from repro.analysis.liveness import Liveness, compute_liveness
from repro.cfg.analysis import CFG, build_cfg
from repro.ir.function import Function
from repro.ir.instructions import Move
from repro.ir.values import PReg, Register, VReg
from repro.profiling import phase

__all__ = [
    "InterferenceGraph",
    "build_interference",
]


class InterferenceGraph:
    """Adjacency over virtual and physical registers, plus the move list.

    The graph is the dense bitmask form: the register ``index`` and a
    ``list[int]`` of symmetric full ``rows`` indexed by dense id, which
    the per-class coloring graphs use directly.  The dict-of-sets
    ``adjacency`` is a view materialized lazily on first access, for the
    consumers that want register sets (the verifier, the DOT export and
    Park–Moon's split primitives).
    """

    def __init__(self, index, rows: list[int], moves: list[Move]):
        self.index = index
        self.rows = rows
        self.moves = moves
        self._adjacency: dict[Register, set[Register]] | None = None

    @property
    def adjacency(self) -> dict[Register, set[Register]]:
        adj = self._adjacency
        if adj is None:
            # Every indexed register becomes a node: the index covers
            # exactly the parameters, defs and uses of the function.
            # Nodes are inserted in dense-id order — the deterministic
            # first-encounter order of the index walk.
            set_of = self.index.set_of
            adj = self._adjacency = {
                reg: set_of(row)
                for reg, row in zip(self.index.regs, self.rows)}
        return adj

    def nodes(self) -> list[Register]:
        return list(self.index.regs)

    def vregs(self) -> list[VReg]:
        return [n for n in self.index.regs if isinstance(n, VReg)]

    def interferes(self, a: Register, b: Register) -> bool:
        if isinstance(a, PReg) and isinstance(b, PReg):
            return a != b and a.rclass is b.rclass
        return b in self.adjacency.get(a, ())

    def neighbors(self, node: Register) -> set[Register]:
        return self.adjacency.get(node, set())


def build_interference(
    func: Function,
    cfg: CFG | None = None,
    liveness: Liveness | None = None,
) -> InterferenceGraph:
    """Build the interference graph of a phi-free, lowered function.

    A backward scan of each block over the liveness pack's
    per-instruction masks accumulates one-sided rows, which are then
    mirrored into the graph's symmetric ``rows``.
    """
    if cfg is None:
        cfg = build_cfg(func)
    if liveness is None:
        liveness = compute_liveness(func, cfg)
    pack = liveness.pack
    index = liveness.index
    out_mask = liveness.live_out_mask
    entries_of = pack.block_entries
    has_phi = pack.has_phi

    moves: list[Move] = []
    #: dense one-sided rows, indexed by dense id (the pack walk has
    #: already registered every register, so the index is complete)
    rows: list[int] = [0] * len(index)

    with phase("rows"):
        row_and = pack.def_and_masks()
        for blk in func.blocks:
            label = blk.label
            if label in has_phi:
                raise ValueError("interference runs after out-of-SSA")
            matrix.scan_packed_block(entries_of[label], out_mask[label],
                                     rows, moves, row_and)

    return InterferenceGraph(index, matrix.mirror_rows(rows), moves)
