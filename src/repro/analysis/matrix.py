"""numpy ``uint64`` bit-matrix backend for the dataflow kernels.

The PR-1 kernels run set algebra over Python big-int bitmasks.  That is
fast per operation but pays Python-interpreter cost per *block* and per
*instruction*: the index walk, the gen/kill summaries, and the
interference scan each re-traverse every instruction calling
``defs()``/``uses()`` and re-testing ``isinstance``.  This module packs
those traversals into one :class:`FunctionPack` walk and re-expresses
the whole-function phases as ``uint64`` bit-matrix operations (shape
``n_rows x ceil(n_bits/64)``):

* liveness solving becomes row-wise OR/AND-NOT sweeps over the packed
  gen/kill matrices with a vectorized changed-row test
  (:func:`solve_liveness`), seeded by one cheap in-order pass;
* interference rows are accumulated from pre-packed per-instruction
  masks and symmetrized by one bit-transpose
  (:func:`symmetrize_matrix`), with :class:`MatrixRows` handing the
  result to :class:`~repro.analysis.interference.InterferenceGraph`
  through a lazy ``rows`` mapping;
* the incremental spill-round mask translation becomes one batched
  unpack / column-permute / repack (:func:`translate_masks`);
* popcounts go through ``np.bitwise_count`` when available
  (:func:`popcount_rows`), falling back to an unpackbits sum.

This is the one production dataflow path.  numpy is a required
dependency, imported lazily on the first kernel call so that importing
the pipeline stays cheap.  Size classes are dispatched inside the
kernels: below :data:`MATRIX_MIN_CELLS` the liveness sweeps drain a
plain int worklist over the same masks (same unique fixed point).  The
set-based references the kernels are checked against live in
``tests/oracles.py``.
"""

from __future__ import annotations

from collections import deque

from repro.ir.instructions import Move, Phi
from repro.ir.values import PReg, VReg

from repro.analysis.indexing import RegisterIndex

__all__ = [
    "numpy_version",
    "FunctionPack",
    "build_pack",
    "scan_packed_block",
    "scan_packed_block_dense",
    "solve_liveness",
    "sets_of_masks",
    "MatrixRows",
    "pack_masks",
    "unpack_masks",
    "symmetrize_matrix",
    "translate_masks",
    "popcount_rows",
    "words_for",
]

WORD = 64

#: Below this many matrix cells (``n_rows * words``) the liveness
#: sweeps stay on the int worklist: per-call numpy overhead beats the
#: word-parallel win on small functions, and both schedules reach the
#: same unique fixed point.  The CPG replay has its own analogous
#: threshold (:data:`repro.core.cpg.MATRIX_MIN_NODES`).
MATRIX_MIN_CELLS = 512


# ----------------------------------------------------------------------
# the (lazily imported) numpy module

_np = None


def _numpy():
    """The numpy module, imported on first use."""
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np


def numpy_version() -> str:
    return _numpy().__version__


# ----------------------------------------------------------------------
# int mask <-> uint64 row conversions

def words_for(n_bits: int) -> int:
    """uint64 words needed for ``n_bits`` (always at least one)."""
    return max(1, (n_bits + WORD - 1) // WORD)


def pack_masks(masks, words: int):
    """Pack an iterable of int masks into one ``(len, words)`` matrix."""
    np = _numpy()
    nbytes = words * 8
    buf = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    n = len(buf) // nbytes
    if n == 0:
        return np.zeros((0, words), dtype=np.uint64)
    return np.frombuffer(buf, dtype="<u8").reshape(n, words).astype(
        np.uint64, copy=True
    )


def unpack_masks(matrix) -> list[int]:
    """Rows of a uint64 bit-matrix back as Python int masks."""
    nbytes = matrix.shape[1] * 8
    buf = matrix.tobytes()
    return [
        int.from_bytes(buf[i * nbytes:(i + 1) * nbytes], "little")
        for i in range(matrix.shape[0])
    ]


def popcount_rows(matrix):
    """Per-row set-bit counts (``np.bitwise_count`` with a fallback)."""
    np = _numpy()
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)
    bits = np.unpackbits(matrix.view(np.uint8), axis=1)
    return bits.sum(axis=1, dtype=np.int64)


def sets_of_masks(index: RegisterIndex, masks) -> list[set]:
    """Materialize many masks into Register sets in one vectorized pass.

    Equivalent to ``[index.set_of(m) for m in masks]`` but unpacks all
    masks at once and splits one global ``nonzero`` instead of
    bit-iterating each big int.  Elements are inserted in ascending
    dense-id order, exactly like ``set_of``.
    """
    np = _numpy()
    masks = list(masks)
    if not masks:
        return []
    matrix = pack_masks(masks, words_for(len(index)))
    bits = np.unpackbits(matrix.view(np.uint8), axis=1, bitorder="little")
    rows, cols = np.nonzero(bits)
    bounds = np.searchsorted(rows, np.arange(len(masks) + 1)).tolist()
    cols = cols.tolist()
    regs = index.regs
    return [
        {regs[j] for j in cols[bounds[i]:bounds[i + 1]]}
        for i in range(len(masks))
    ]


# ----------------------------------------------------------------------
# the pack: one walk replacing the index / summary / scan traversals

class FunctionPack:
    """Everything the matrix kernels need, gathered in one function walk.

    The walk assigns dense ids in *exactly*
    :func:`~repro.analysis.indexing.index_function` order (parameters,
    then per instruction defs before uses / phi-incoming values), so the
    resulting :attr:`index` — and every mask built on it — is
    interchangeable with one built by ``index_function`` (the
    incremental patchers re-index that way).
    """

    __slots__ = ("index", "gen", "kill", "phi_defs", "edge_use",
                 "block_entries", "has_phi", "words", "_row_and")

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
        self.words: int = 1
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
    pack.words = words_for(len(index))
    return pack


def scan_packed_block(entries, live_out: int, rows: dict[int, int],
                      moves: list, row_and: list[int]) -> None:
    """Backward interference scan of one pre-packed block.

    Mask-for-mask and move-for-move identical to
    :func:`~repro.analysis.interference.scan_block_rows`, but over the
    pack's per-instruction masks — no ``defs()``/``uses()`` calls, no
    isinstance tests, no per-register bit lookups.  ``row_and`` is the
    pack's :meth:`~FunctionPack.def_and_masks` table.
    """
    live = live_out
    get = rows.get
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
                rows[i] = get(i, 0) | (targets & row_and[i])
        live = (live & ~dmask) | umask


def scan_packed_block_dense(entries, live_out: int, rows: list[int],
                            moves: list, row_and: list[int]) -> None:
    """:func:`scan_packed_block` accumulating into a dense row list.

    Same masks, same move order; ``rows`` is indexed by dense id (one
    slot per indexed register), skipping the sparse dict's hashing.
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
# liveness: seeded row-OR/AND-NOT sweeps

def solve_liveness(pack: FunctionPack, cfg) -> tuple[dict, dict]:
    """Fixed-point live-in/live-out masks per block label.

    One in-order (postorder) Gauss–Seidel pass over int masks seeds the
    solution below the fixed point; matrix sweeps — a gathered
    successor OR, a row-wise ``gen | (out & ~kill)`` transfer, and one
    vectorized changed-row test — then drive it to (and certify) the
    fixed point.  The fixed point is unique, so the result is
    mask-identical to any worklist schedule's.  Unreachable blocks keep
    zero masks (a worklist never queues them).

    Below :data:`MATRIX_MIN_CELLS` cells the sweeps stay on a plain int
    worklist — same unique fixed point, none of the per-call numpy
    overhead that dominates on small functions.
    """
    gen, kill, phi_defs = pack.gen, pack.kill, pack.phi_defs
    edge_use = pack.edge_use
    live_in = {label: 0 for label in gen}
    live_out = {label: 0 for label in gen}
    order = cfg.postorder()
    succs = cfg.succs
    if not order:
        return live_in, live_out
    words = pack.words
    if len(order) * words < MATRIX_MIN_CELLS:
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

    np = _numpy()
    for label in order:
        out = 0
        for succ in succs[label]:
            out |= live_in[succ] & ~phi_defs[succ]
            out |= edge_use.get((label, succ), 0)
        live_out[label] = out
        live_in[label] = (
            gen[label] | (out & ~kill[label])
        ) & ~phi_defs[label]

    pos = {label: i for i, label in enumerate(order)}
    gen_m = pack_masks((gen[la] for la in order), words)
    nkill_m = ~pack_masks((kill[la] for la in order), words)
    nphi_m = ~pack_masks((phi_defs[la] for la in order), words)
    in_m = pack_masks((live_in[la] for la in order), words)

    e_dst: list[int] = []
    e_masks: list[int] = []
    starts: list[int] = []
    out_rows: list[int] = []
    for i, label in enumerate(order):
        slist = succs[label]
        if not slist:
            continue
        starts.append(len(e_dst))
        out_rows.append(i)
        for succ in slist:
            e_dst.append(pos[succ])
            e_masks.append(edge_use.get((label, succ), 0))
    out_m = np.zeros_like(in_m)
    if e_dst:
        e_dst_a = np.asarray(e_dst, dtype=np.intp)
        starts_a = np.asarray(starts, dtype=np.intp)
        out_rows_a = np.asarray(out_rows, dtype=np.intp)
        edge_m = pack_masks(e_masks, words)
        while True:
            out_m = np.zeros_like(in_m)
            contrib = (in_m[e_dst_a] & nphi_m[e_dst_a]) | edge_m
            out_m[out_rows_a] = np.bitwise_or.reduceat(
                contrib, starts_a, axis=0
            )
            new_in = (gen_m | (out_m & nkill_m)) & nphi_m
            if np.array_equal(new_in, in_m):
                break
            in_m = new_in
    in_masks = unpack_masks(in_m)
    out_masks = unpack_masks(out_m)
    for i, label in enumerate(order):
        live_in[label] = in_masks[i]
        live_out[label] = out_masks[i]
    return live_in, live_out


def sweep_liveness(gen: dict, kill: dict, seed_in: dict, succs,
                   n_regs: int) -> tuple[dict, dict]:
    """Drive a below-fixpoint seed to the liveness fixed point.

    The phi-free variant of :func:`solve_liveness`'s sweep stage, used
    by incremental spill-round re-analysis: ``seed_in`` (the translated
    previous-round solution) must be pointwise at or below the fixed
    point, which the monotone sweeps then reach and certify.  All
    blocks in ``gen`` participate (the incremental path requires a
    fully-reachable CFG).  Like :func:`solve_liveness`, functions below
    :data:`MATRIX_MIN_CELLS` cells drain a plain int worklist instead.
    """
    labels = list(gen)
    live_in = dict(seed_in)
    live_out = {label: 0 for label in labels}
    if not labels:
        return live_in, live_out
    words = words_for(n_regs)
    if len(labels) * words < MATRIX_MIN_CELLS:
        preds: dict[str, list[str]] = {label: [] for label in labels}
        for label in labels:
            for succ in succs[label]:
                preds[succ].append(label)
        pending = deque(labels)
        queued = set(labels)
        while pending:
            label = pending.popleft()
            queued.discard(label)
            out = 0
            for succ in succs[label]:
                out |= live_in[succ]
            new_in = gen[label] | (out & ~kill[label])
            live_out[label] = out
            if new_in != live_in[label]:
                live_in[label] = new_in
                for pred in preds[label]:
                    if pred not in queued:
                        queued.add(pred)
                        pending.append(pred)
        return live_in, live_out

    np = _numpy()
    pos = {label: i for i, label in enumerate(labels)}
    gen_m = pack_masks((gen[la] for la in labels), words)
    nkill_m = ~pack_masks((kill[la] for la in labels), words)
    in_m = pack_masks((live_in[la] for la in labels), words)

    e_dst: list[int] = []
    starts: list[int] = []
    out_rows: list[int] = []
    for i, label in enumerate(labels):
        slist = succs[label]
        if not slist:
            continue
        starts.append(len(e_dst))
        out_rows.append(i)
        for succ in slist:
            e_dst.append(pos[succ])
    out_m = np.zeros_like(in_m)
    if e_dst:
        e_dst_a = np.asarray(e_dst, dtype=np.intp)
        starts_a = np.asarray(starts, dtype=np.intp)
        out_rows_a = np.asarray(out_rows, dtype=np.intp)
        while True:
            out_m = np.zeros_like(in_m)
            out_m[out_rows_a] = np.bitwise_or.reduceat(
                in_m[e_dst_a], starts_a, axis=0
            )
            new_in = gen_m | (out_m & nkill_m)
            if np.array_equal(new_in, in_m):
                break
            in_m = new_in
    else:
        in_m = gen_m | (out_m & nkill_m)
    in_masks = unpack_masks(in_m)
    out_masks = unpack_masks(out_m)
    for i, label in enumerate(labels):
        live_in[label] = in_masks[i]
        live_out[label] = out_masks[i]
    return live_in, live_out


# ----------------------------------------------------------------------
# interference: matrix symmetrization + the lazy rows mapping

def symmetrize_matrix(matrix, n_bits: int):
    """``matrix | matrix^T`` over the leading ``n_bits`` bit columns.

    One unpack / boolean transpose-OR / repack replaces the int
    backend's per-bit mirroring loop.  Returns a fresh matrix of the
    same shape.
    """
    np = _numpy()
    rows, words = matrix.shape
    bits = np.unpackbits(matrix.view(np.uint8), axis=1, bitorder="little")
    square = bits[:, :n_bits]
    bits[:, :n_bits] = square | square.T
    packed = np.packbits(bits, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64).reshape(rows, words)


class MatrixRows:
    """The ``rows`` mapping of a bit-matrix interference graph.

    Duck-types a ``dict[int, int]`` of rows on
    :class:`~repro.analysis.interference.InterferenceGraph` — consumers
    only ever call ``.get(dense_id, default)`` — while keeping the
    symmetrized adjacency as one numpy matrix.  The first ``get``
    decodes *every* row in one batch (graph consumers — the per-class
    projection, simplify, select — end up touching nearly all of them),
    after which lookups are plain list indexing.
    """

    __slots__ = ("matrix", "_masks")

    def __init__(self, matrix) -> None:
        self.matrix = matrix
        self._masks: list[int] | None = None

    def get(self, i: int, default: int = 0) -> int:
        masks = self._masks
        if masks is None:
            masks = self._masks = unpack_masks(self.matrix)
        if 0 <= i < len(masks):
            return masks[i]
        return default

    def masks(self) -> list[int]:
        if self._masks is None:
            self._masks = unpack_masks(self.matrix)
        return list(self._masks)


def rows_matrix(rows: dict[int, int], n_bits: int):
    """A dense ``(n_bits, words)`` matrix from a sparse rows dict."""
    get = rows.get
    return pack_masks((get(i, 0) for i in range(n_bits)),
                      words_for(n_bits))


# ----------------------------------------------------------------------
# incremental re-analysis: batched row translation

def translate_masks(masks, trans_pos, old_n: int, new_n: int) -> list[int]:
    """Translate many masks through a dense-id renumbering at once.

    ``trans_pos[old_id]`` is the new dense id, or -1 when the register
    was deleted.  The mapping is injective on survivors (renumbering is
    a bijection on surviving webs), so the column permute below never
    collides.
    """
    np = _numpy()
    masks = list(masks)
    if not masks:
        return []
    trans_pos = np.asarray(trans_pos, dtype=np.int64)
    matrix = pack_masks(masks, words_for(old_n))
    bits = np.unpackbits(
        matrix.view(np.uint8), axis=1, bitorder="little"
    )[:, :old_n]
    valid = trans_pos >= 0
    new_bits = np.zeros((len(masks), words_for(new_n) * WORD), np.uint8)
    new_bits[:, trans_pos[valid]] = bits[:, valid]
    packed = np.packbits(new_bits, axis=1, bitorder="little")
    out = np.ascontiguousarray(packed).view(np.uint64).reshape(
        len(masks), words_for(new_n)
    )
    return unpack_masks(out)
