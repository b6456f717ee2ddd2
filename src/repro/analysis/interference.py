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
definer's adjacency row in one operation.  Rows are symmetrized at the
end by one numpy bit-transpose, but the public dict-of-sets
``adjacency`` stays *lazy*: the
per-class coloring graphs (:func:`~repro.regalloc.igraph.build_alloc_graph`)
read the symmetrized rows directly, so the Register-object sets are
built exactly once — in the coloring graph — instead of once here and
again per class per round.  Anything that does ask for ``adjacency``
(the verifier, the visualizer, the reference comparisons) materializes
it on first access and caches it.
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
from repro.ir.instructions import Move, Phi
from repro.ir.values import PReg, RegClass, Register, VReg
from repro.profiling import phase

__all__ = [
    "InterferenceGraph",
    "build_interference",
    "scan_block_rows",
]


class InterferenceGraph:
    """Adjacency over virtual and physical registers, plus the move list.

    Two backing representations coexist: the classic dict-of-sets
    ``adjacency`` (always available, built eagerly by the reference
    builder and by tests) and the dense bitmask form ``index`` + ``rows``
    (a :class:`~repro.analysis.matrix.MatrixRows` of symmetrized full
    rows keyed by dense id) the builder produces.
    In the bitmask form ``adjacency`` is materialized lazily on first
    access, so the common allocation path — which projects per-class
    coloring graphs straight off the rows — never pays for the
    function-wide set-of-Registers dictionary at all.
    """

    def __init__(
        self,
        adjacency: dict[Register, set[Register]] | None = None,
        moves: list[Move] | None = None,
        block_rows: dict[str, dict[int, int]] | None = None,
        index=None,
        rows: matrix.MatrixRows | None = None,
    ):
        if adjacency is None and rows is None:
            adjacency = {}
        self._adjacency = adjacency
        self.moves = moves if moves is not None else []
        #: per-block one-sided row contributions (dense id -> neighbor
        #: mask), populated by ``build_interference(collect_block_rows=
        #: True)`` so incremental spill-round re-analysis can reuse
        #: untouched blocks
        self.block_rows = block_rows
        #: dense register index / symmetrized full rows of the bitmask
        #: form (None for eagerly-built graphs)
        self.index = index
        self.rows = rows

    @property
    def adjacency(self) -> dict[Register, set[Register]]:
        adj = self._adjacency
        if adj is None:
            adj = self._adjacency = self._materialize()
        return adj

    @property
    def materialized(self) -> bool:
        return self._adjacency is not None

    def _materialize(self) -> dict[Register, set[Register]]:
        # Every indexed register becomes a node: the index covers exactly
        # the parameters, defs and uses of the function, which is the
        # same population the scan's live/def masks range over, so no
        # indexed register can be absent.  Nodes are inserted in
        # dense-id order — the deterministic first-encounter order of
        # the index walk — which downstream tie-breaks depend on.
        regs = self.index.regs
        get = self.rows.get
        adj: dict[Register, set[Register]] = {}
        for i in range(len(regs)):
            row = get(i, 0)
            neighbors = set()
            while row:
                low = row & -row
                neighbors.add(regs[low.bit_length() - 1])
                row ^= low
            adj[regs[i]] = neighbors
        return adj

    def nodes(self) -> list[Register]:
        if self._adjacency is None:
            return list(self.index.regs)
        return list(self.adjacency)

    def vregs(self) -> list[VReg]:
        source = (self.index.regs if self._adjacency is None
                  else self.adjacency)
        return [n for n in source if isinstance(n, VReg)]

    def nodes_by_class(self) -> dict[RegClass, list[Register]]:
        """Nodes partitioned by register class, in insertion order.

        Computed once and cached so per-class projections
        (:func:`~repro.regalloc.igraph.build_alloc_graph`) do not rescan
        every node of the function for every class; the cache refreshes
        if nodes were added since it was built.  The bitmask form
        partitions ``index.regs`` directly — same population, same
        order — without materializing any set.
        """
        source = (self.index.regs if self._adjacency is None
                  else self._adjacency)
        cached = getattr(self, "_class_cache", None)
        if cached is not None and cached[0] == len(source):
            return cached[1]
        partition: dict[RegClass, list[Register]] = {}
        for node in source:
            partition.setdefault(node.rclass, []).append(node)
        self._class_cache = (len(source), partition)
        return partition

    def row_set(self, node: Register) -> set[Register] | None:
        """``node``'s neighbor set straight off the bitmask row.

        Returns None when the graph has no bitmask form.  Unlike
        :meth:`neighbors` this never materializes the full adjacency;
        the caller owns the returned set.  Every row is decoded in one
        vectorized batch on the first call (per-class projection touches
        them all anyway); each call still hands out a fresh copy.
        """
        rows = self.rows
        if rows is None:
            return None
        sets = getattr(self, "_row_sets", None)
        if sets is None:
            sets = self._row_sets = matrix.sets_of_masks(
                self.index, rows.masks()
            )
        i = self.index.ids[node]
        return set(sets[i]) if i < len(sets) else set()

    def ensure(self, node: Register) -> None:
        self.adjacency.setdefault(node, set())

    def add_edge(self, a: Register, b: Register) -> None:
        if a is b or a == b:
            return
        if a.rclass is not b.rclass:
            return
        if isinstance(a, PReg) and isinstance(b, PReg):
            return
        self.adjacency.setdefault(a, set()).add(b)
        self.adjacency.setdefault(b, set()).add(a)

    def interferes(self, a: Register, b: Register) -> bool:
        if isinstance(a, PReg) and isinstance(b, PReg):
            return a != b and a.rclass is b.rclass
        return b in self.adjacency.get(a, ())

    def degree(self, node: Register) -> int:
        return len(self.adjacency.get(node, ()))

    def neighbors(self, node: Register) -> set[Register]:
        return self.adjacency.get(node, set())


def scan_block_rows(
    blk,
    index,
    live_out: int,
    rows: dict[int, int],
    moves: list[Move],
) -> None:
    """Backward scan of one block, OR-ing one-sided rows into ``rows``.

    ``live_out`` is the block's live-out bitmask.  The block's ``Move``
    instructions are appended to ``moves`` in scan (reversed) order —
    the same order :func:`build_interference` has always produced.
    """
    bit_of = index.bit_of
    live = live_out
    for instr in reversed(blk.instrs):
        if isinstance(instr, Phi):
            raise ValueError("interference runs after out-of-SSA")
        defs = [d for d in instr.defs() if isinstance(d, (VReg, PReg))]
        uses = [u for u in instr.uses() if isinstance(u, (VReg, PReg))]

        if isinstance(instr, Move):
            moves.append(instr)
            if isinstance(instr.src, (VReg, PReg)):
                live &= ~bit_of(instr.src)

        defs_mask = 0
        for d in defs:
            defs_mask |= bit_of(d)
        targets = live | defs_mask
        for d in defs:
            dbit = bit_of(d)
            row = (targets & index.class_mask(d)) & ~dbit
            if isinstance(d, PReg):
                # Physical-physical edges are implicit, never stored.
                row &= ~index.preg_mask
            i = dbit.bit_length() - 1
            rows[i] = rows.get(i, 0) | row

        live &= ~defs_mask
        for u in uses:
            live |= bit_of(u)


def build_interference(
    func: Function,
    cfg: CFG | None = None,
    liveness: Liveness | None = None,
    collect_block_rows: bool = False,
) -> InterferenceGraph:
    """Build the interference graph of a phi-free, lowered function.

    A pack-driven scan produces the same one-sided rows as
    :func:`scan_block_rows` (mask-for-mask), then one bit-transpose
    symmetrizes them.  The graph's ``rows`` is a
    :class:`~repro.analysis.matrix.MatrixRows` view, rows decoded
    lazily.  ``collect_block_rows=True`` additionally records each
    block's one-sided row contributions on the result's
    ``block_rows`` — the state incremental spill-round re-analysis
    patches from.
    """
    if cfg is None:
        cfg = build_cfg(func)
    if liveness is None:
        liveness = compute_liveness(func, cfg)
    pack = liveness.pack
    if pack is None:
        # Patched liveness carries no pack; one walk rebuilds it.
        pack = matrix.build_pack(func)
    index = liveness.index
    out_mask = liveness.live_out_mask
    entries_of = pack.block_entries
    has_phi = pack.has_phi

    moves: list[Move] = []
    #: dense one-sided rows, indexed by dense id (the pack walk has
    #: already registered every register, so the index is complete)
    rows: list[int] = [0] * len(index)
    block_rows: dict[str, dict[int, int]] | None = (
        {} if collect_block_rows else None
    )

    with phase("rows"):
        row_and = pack.def_and_masks()
        for blk in func.blocks:
            label = blk.label
            if label in has_phi:
                raise ValueError("interference runs after out-of-SSA")
            entries = entries_of[label]
            if block_rows is None:
                matrix.scan_packed_block_dense(entries, out_mask[label],
                                               rows, moves, row_and)
            else:
                local: dict[int, int] = {}
                matrix.scan_packed_block(entries, out_mask[label], local,
                                         moves, row_and)
                block_rows[label] = local
                for i, row in local.items():
                    rows[i] |= row

    sym = matrix.symmetrize_matrix(
        matrix.pack_masks(rows, matrix.words_for(len(index))), len(index)
    )
    graph = InterferenceGraph(moves=moves, index=index,
                              rows=matrix.MatrixRows(sym))
    graph.block_rows = block_rows
    return graph
