"""Int-bitmask dataflow kernels over one packed function walk.

Liveness, interference and (in :mod:`repro.core.cpg`) the CPG closure
run set algebra over Python big-int bitmasks: a register set is one
int over the dense ids of a :class:`~repro.analysis.indexing.RegisterIndex`,
and a bit-matrix is a ``list[int]`` with one int per row.  The speed
comes from batching and restructuring, not from wide words:

* :func:`build_pack` walks the function once, giving every register its
  dense id and summarizing each block into gen/kill/phi-def masks, the
  per-edge phi-arm uses, and pre-packed per-instruction scan entries,
  so no later phase calls ``defs()``/``uses()`` or tests ``isinstance``;
* :func:`solve_liveness` drains a block worklist over those masks;
* :func:`scan_packed_block` accumulates one-sided interference rows
  block by block, and :func:`mirror_rows` makes them symmetric.

This is the one production dataflow path.  The set-based references it
is checked against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import deque

from repro.ir.instructions import Move, Phi
from repro.ir.values import PReg, VReg

from repro.analysis.indexing import RegisterIndex

__all__ = [
    "FunctionPack",
    "build_pack",
    "scan_packed_block",
    "solve_liveness",
    "mirror_rows",
]


# ----------------------------------------------------------------------
# the pack: one walk replacing the index / summary / scan traversals

class FunctionPack:
    """Everything the dataflow kernels need, gathered in one function walk.

    The walk assigns dense ids in first-encounter order (parameters,
    then per instruction defs before uses / phi-incoming values), so
    clones of one function get the same :attr:`index` — and the same
    masks on it.
    """

    __slots__ = ("index", "gen", "kill", "phi_defs", "edge_use",
                 "block_entries", "has_phi", "_row_and")

    def __init__(self) -> None:
        self.index = RegisterIndex()
        #: per-block gen (upward-exposed use) / kill (def) / phi-def masks
        self.gen: dict[str, int] = {}
        self.kill: dict[str, int] = {}
        self.phi_defs: dict[str, int] = {}
        #: per-edge phi-arm uses: (pred, succ) -> mask
        self.edge_use: dict[tuple[str, str], int] = {}
        #: per-block interference-scan entries in reversed (scan) order:
        #: (defs_mask, uses_mask, move_src_clear, move).  Runs of
        #: consecutive use-only instructions are merged into one entry
        #: (only their combined ``live |= uses`` effect is observable)
        #: and operand-free instructions are dropped outright.
        self.block_entries: dict[str, tuple] = {}
        #: labels still containing phis (their entries must not be
        #: interference-scanned; the builder raises on them)
        self.has_phi: set[str] = set()
        self._row_and: list[int] | None = None

    def def_and_masks(self) -> list[int]:
        """Per-dense-id row AND-mask (class projection, self-bit strip,
        and preg-preg suppression), built once on first scan."""
        row_and = self._row_and
        if row_and is None:
            index = self.index
            int_mask = index.int_mask
            float_mask = index.float_mask
            preg_mask = index.preg_mask
            not_preg = ~preg_mask
            row_and = []
            bit = 1
            for _ in range(len(index.regs)):
                base = int_mask if bit & int_mask else float_mask
                mask = base & ~bit
                if bit & preg_mask:
                    mask &= not_preg
                row_and.append(mask)
                bit <<= 1
            self._row_and = row_and
        return row_and


def build_pack(func) -> FunctionPack:
    """One deterministic walk of ``func`` producing its pack."""
    pack = FunctionPack()
    index = pack.index
    ids = index.ids
    iget = ids.get
    add = index.add
    edge_use = pack.edge_use
    for param in func.params:
        add(param)
    for blk in func.blocks:
        label = blk.label
        gen = kill = phi_defs = 0
        entries = []
        for instr in blk.instrs:
            if isinstance(instr, Phi):
                pack.has_phi.add(label)
                dmask = 0
                for d in instr.defs():
                    if isinstance(d, (VReg, PReg)):
                        i = iget(d)
                        dmask |= 1 << (add(d) if i is None else i)
                kill |= dmask
                phi_defs |= dmask
                for pred, value in instr.incoming.items():
                    if isinstance(value, (VReg, PReg)):
                        i = iget(value)
                        key = (pred, label)
                        edge_use[key] = edge_use.get(key, 0) | (
                            1 << (add(value) if i is None else i)
                        )
                continue
            dmask = 0
            for d in instr.defs():
                if isinstance(d, (VReg, PReg)):
                    i = iget(d)
                    dmask |= 1 << (add(d) if i is None else i)
            umask = 0
            for u in instr.uses():
                if isinstance(u, (VReg, PReg)):
                    i = iget(u)
                    umask |= 1 << (add(u) if i is None else i)
            gen |= umask & ~kill
            kill |= dmask
            if isinstance(instr, Move):
                src = instr.src
                srcclear = (
                    1 << ids[src] if isinstance(src, (VReg, PReg)) else 0
                )
                entries.append((dmask, umask, srcclear, instr))
            elif dmask:
                entries.append((dmask, umask, 0, None))
            elif umask:
                # Use-only instruction: fold into an adjacent use-only
                # entry — the scan only ever observes the combined OR.
                if entries and entries[-1][0] == 0 and entries[-1][3] is None:
                    prev = entries[-1]
                    entries[-1] = (0, prev[1] | umask, 0, None)
                else:
                    entries.append((0, umask, 0, None))
        pack.gen[label] = gen
        pack.kill[label] = kill
        pack.phi_defs[label] = phi_defs
        entries.reverse()
        pack.block_entries[label] = tuple(entries)
    return pack


def scan_packed_block(entries, live_out: int, rows: list[int],
                      moves: list, row_and: list[int]) -> None:
    """Backward interference scan of one pre-packed block.

    ORs each definition's one-sided row into ``rows`` (indexed by dense
    id, one slot per indexed register) and appends the block's moves to
    ``moves`` in scan (reversed) order.  Mask-for-mask identical to the
    per-instruction reference scan in ``tests/oracles.py``, but over the
    pack's per-instruction masks — no ``defs()``/``uses()`` calls, no
    isinstance tests, no per-register bit lookups.  ``row_and`` is the
    pack's :meth:`~FunctionPack.def_and_masks` table.
    """
    live = live_out
    append = moves.append
    for dmask, umask, srcclear, move in entries:
        if move is not None:
            append(move)
            if srcclear:
                live &= ~srcclear
        if dmask:
            targets = live | dmask
            rest = dmask
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                rows[i] |= targets & row_and[i]
        live = (live & ~dmask) | umask


# ----------------------------------------------------------------------
# liveness: the block worklist

def solve_liveness(pack: FunctionPack, cfg) -> tuple[dict, dict]:
    """Fixed-point live-in/live-out masks per block label.

    A FIFO worklist seeded in postorder: a block's transfer is a
    handful of int operations, and a block is re-queued only when a
    successor's live-in mask changed.  The fixed point is unique, so any
    schedule gives the same masks.  Unreachable blocks keep zero masks
    (the worklist never queues them).
    """
    gen, kill, phi_defs = pack.gen, pack.kill, pack.phi_defs
    edge_use = pack.edge_use
    live_in = {label: 0 for label in gen}
    live_out = {label: 0 for label in gen}
    order = cfg.postorder()
    succs = cfg.succs
    preds = cfg.preds
    pending = deque(order)
    queued = set(order)
    while pending:
        label = pending.popleft()
        queued.discard(label)
        out = 0
        for succ in succs[label]:
            out |= live_in[succ] & ~phi_defs[succ]
            out |= edge_use.get((label, succ), 0)
        new_in = (gen[label] | (out & ~kill[label])) & ~phi_defs[label]
        live_out[label] = out
        if new_in != live_in[label]:
            live_in[label] = new_in
            for pred in preds[label]:
                if pred not in queued:
                    queued.add(pred)
                    pending.append(pred)
    return live_in, live_out


# ----------------------------------------------------------------------
# interference: the mirror

def mirror_rows(rows: list[int]) -> list[int]:
    """``rows | rows^T``: the symmetric closure of one-sided rows.

    Each set bit ``j`` of row ``i`` sets bit ``i`` of row ``j``, so the
    work is proportional to the number of one-sided edges, not to the
    square of the register count.
    """
    sym = list(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            row ^= low
            sym[low.bit_length() - 1] |= bit
    return sym
