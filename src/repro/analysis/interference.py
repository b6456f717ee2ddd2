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
symmetric ones at the end (:func:`~repro.analysis.matrix.mirror_rows`),
but the public dict-of-sets ``adjacency`` stays *lazy*: the
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
from repro.ir.instructions import Move
from repro.ir.values import PReg, RegClass, Register, VReg
from repro.profiling import phase

__all__ = [
    "InterferenceGraph",
    "build_interference",
]


class InterferenceGraph:
    """Adjacency over virtual and physical registers, plus the move list.

    Two backing representations coexist: the classic dict-of-sets
    ``adjacency`` (always available, built eagerly by the reference
    builder and by tests) and the dense bitmask form ``index`` + ``rows``
    (a ``list[int]`` of symmetric full rows, indexed by dense id) the
    builder produces.
    In the bitmask form ``adjacency`` is materialized lazily on first
    access, so the common allocation path — which projects per-class
    coloring graphs straight off the rows — never pays for the
    function-wide set-of-Registers dictionary at all.
    """

    def __init__(
        self,
        adjacency: dict[Register, set[Register]] | None = None,
        moves: list[Move] | None = None,
        index=None,
        rows: list[int] | None = None,
    ):
        if adjacency is None and rows is None:
            adjacency = {}
        self._adjacency = adjacency
        self.moves = moves if moves is not None else []
        #: dense register index / symmetric full rows of the bitmask
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
        set_of = self.index.set_of
        return {reg: set_of(row)
                for reg, row in zip(self.index.regs, self.rows)}

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
        each call decodes the row into a fresh set the caller owns.
        """
        if self.rows is None:
            return None
        return self.index.set_of(self.rows[self.index.ids[node]])

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

    return InterferenceGraph(moves=moves, index=index,
                             rows=matrix.mirror_rows(rows))
