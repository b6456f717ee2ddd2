"""Incremental re-analysis: patching round analyses through a delta.

The Figure 8 loop — renumber → analyze → color → spill → repeat —
rebuilt every analysis from scratch each round, although
:func:`~repro.regalloc.spill.insert_spill_code` never changes control
flow and rewrites only the blocks where a spilled live range occurs.
PR-3 patched the previous round's analyses through a
:class:`~repro.regalloc.spill.SpillDelta`; this module generalizes the
same machinery to an arbitrary :class:`~repro.ir.diff.FunctionDelta`,
so *source edits* (the session layer, :mod:`repro.service.session`)
patch analyses the same way spill rounds do:

* **CFG and loop nest** are reused outright while the delta leaves the
  edge set alone, and rebuilt (they are cheap) when it does not;
* **liveness** re-derives gen/kill summaries only for touched blocks
  and re-solves the fixed point from masks translated through the
  delta's register rename in one batched column permute;
* **interference** re-scans only touched blocks; untouched blocks'
  one-sided row contributions are translated and re-merged;
* **spill costs** re-scan only touched blocks; untouched contributions
  are renamed and re-summed.

Why translation + monotone sweeps are exact: the rename maps every
surviving live range bijectively, and a register that occurs in any
untouched block has — by per-register separability of liveness (the
bits of ``v`` depend only on ``v``'s own occurrences and the CFG) —
exactly the same bits it had before, under the rename.  Registers
whose occurrences may have changed (they occur in a touched or removed
base block) must not be re-iterated from the stale solution, because a
stale "live" bit can sustain itself around a cycle; their bits are
dropped from every translated seed, leaving a start point *below* the
new fixed point, and the sweeps monotonically re-add exactly what the
re-scanned blocks expose.  The fixed point of the (monotone,
finite) system is unique, so the patched solution equals the
from-scratch one bit for bit.  Spill rounds are the special case where
only the spilled ranges are unstable and they vanish entirely.
Untouched interference rows additionally require the block's live-out
set to survive the edit unchanged — checked per block with one mask
compare (spill insertion cannot change a survivor's liveness, so the
spill path skips the gate) — and cost tables require the block's loop
frequency to survive, checked when the loop nest was rebuilt.

Any violated assumption — web splits, unreachable blocks, missing
per-block state, an inconsistent delta, or a delta touching more than
:data:`EDIT_TOUCHED_BAILOUT` of the blocks — makes the patchers return
``None`` and the caller falls back to a from-scratch
:func:`~repro.regalloc.base.compute_round_analyses`.

Patching is always on; that bail-out is its only fallback.  The
from-scratch rebuild doubles as the test oracle: ``tests/oracles.py``
compares every patched round against it (``compare_analyses``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis import matrix
from repro.analysis.indexing import index_function
from repro.analysis.interference import InterferenceGraph, scan_block_rows
from repro.analysis.liveness import LazySetsLiveness, Liveness, _block_masks
from repro.analysis.renumber import RenumberResult
from repro.cfg.analysis import CFG, build_cfg
from repro.cfg.loops import LoopInfo, compute_loops
from repro.ir.diff import FunctionDelta
from repro.ir.function import Function
from repro.ir.instructions import Move
from repro.ir.values import PReg, VReg
from repro.profiling import phase
from repro.regalloc.costs import block_spill_costs
from repro.regalloc.spill import SpillDelta

__all__ = [
    "PatchedAnalyses",
    "apply_spill_delta",
    "apply_function_delta",
    "EDIT_TOUCHED_BAILOUT",
]

#: A :class:`FunctionDelta` touching more than this fraction of the new
#: function's blocks is not worth patching through — translation plus
#: re-scan would approach the cost of a from-scratch analysis, so the
#: patcher bails out conservatively.
EDIT_TOUCHED_BAILOUT = 0.5


@dataclass(eq=False)
class PatchedAnalyses:
    """The analyses a delta patch produced for the new round.

    ``cfg``/``loops`` are the tables valid for the patched function —
    the previous round's objects when the delta left the edge set
    alone, freshly built otherwise.
    """

    liveness: Liveness
    ig: InterferenceGraph
    spill_costs: dict[VReg, float]
    block_rows: dict[str, dict[int, int]]
    block_costs: dict[str, dict[VReg, float]]
    cfg: CFG | None = None
    loops: LoopInfo | None = None


@dataclass(eq=False)
class _PatchPlan:
    """How one delta maps onto the shared patch core.

    The spill plan and the edit plan differ only in flags: the spill
    path skips the reuse gates (its invariants make them vacuous), the
    edit path gates row/cost reuse.
    """

    touched: set[str]
    rename: dict
    dropped: Iterable[VReg]
    cfg: CFG
    loops: LoopInfo
    #: spill mode: a survivor missing from the rename means the delta
    #: lied — bail instead of dropping
    strict: bool = True
    #: ignore the old solution entirely (the edge set changed, so stale
    #: bits need not sit below the new fixed point)
    seed_zero: bool = False
    #: *base-side* labels whose registers' seed bits are unsafe
    stale_labels: frozenset = frozenset()
    #: compare each untouched block's live-out before reusing its rows
    gate_rows: bool = False
    #: compare each untouched block's loop frequency before reusing its
    #: cost table
    gate_costs: bool = False


def apply_spill_delta(
    func: Function,
    prev,
    delta: SpillDelta,
    renumbering: RenumberResult,
) -> PatchedAnalyses | None:
    """Patch ``prev`` (a ``RoundAnalyses``) through one spill round.

    ``func`` has already been rewritten by spill insertion *and*
    renumbered; ``renumbering`` is that renumber's result.  Returns
    ``None`` whenever an assumption the patch relies on does not hold,
    in which case the caller recomputes from scratch.  Every untouched
    mask is translated through one batched column permute and the
    liveness fixed point is re-solved with matrix sweeps.
    """
    # A split web means renaming is not a bijection on survivors.
    if any(count != 1 for count in renumbering.split_counts.values()):
        return None
    fdelta = FunctionDelta.from_spill(delta, renumbering)
    plan = _PatchPlan(
        touched=set(fdelta.touched_blocks),
        rename=fdelta.rename,
        dropped=fdelta.deleted_vregs,
        cfg=prev.cfg,
        loops=prev.loops,
    )
    return _apply_delta(func, prev, plan)


def apply_function_delta(
    func: Function,
    prev,
    fdelta: FunctionDelta,
) -> PatchedAnalyses | None:
    """Patch ``prev`` (a ``RoundAnalyses``) through an edit delta.

    ``func`` is the new version, already prepared and renumbered;
    ``fdelta`` must come from a renumbered-mode
    :func:`~repro.ir.diff.diff_functions` of the previously analyzed
    function against ``func``.  Returns ``None`` when the delta is
    inconsistent, touches more than :data:`EDIT_TOUCHED_BAILOUT` of the
    blocks, or violates a patch precondition.
    """
    if not fdelta.consistent:
        return None
    if fdelta.touched_fraction(len(func.blocks)) > EDIT_TOUCHED_BAILOUT:
        return None

    with phase("patch"):
        if fdelta.changed_edges:
            with phase("cfg"):
                cfg = build_cfg(func)
                loops = compute_loops(cfg)
        else:
            cfg, loops = prev.cfg, prev.loops

        plan = _PatchPlan(
            touched=set(fdelta.touched_blocks) | set(fdelta.added_blocks),
            rename=fdelta.rename,
            dropped=fdelta.deleted_vregs,
            cfg=cfg,
            loops=loops,
            strict=False,
            seed_zero=fdelta.changed_edges,
            stale_labels=frozenset(fdelta.touched_blocks)
            | frozenset(fdelta.removed_blocks),
            gate_rows=True,
            gate_costs=fdelta.changed_edges,
        )
        return _apply_delta(func, prev, plan)


def _apply_delta(
    func: Function,
    prev,
    plan: _PatchPlan,
) -> PatchedAnalyses | None:
    old_liv: Liveness = prev.liveness
    old_index = old_liv.index
    if (old_index is None or prev.block_rows is None
            or prev.block_costs is None or not old_liv.use_mask):
        return None
    cfg = plan.cfg
    loops = plan.loops
    blocks = func.block_map()
    # Renumber skips unreachable blocks, so their registers keep stale
    # names the rename map cannot translate.
    if len(cfg.reachable()) != len(blocks):
        return None

    touched = plan.touched
    dropped = set(plan.dropped)
    rename = plan.rename

    # --- old dense id -> new dense id (-1 drops the register) ----------
    # The canonical index of the rewritten function: building it fresh
    # (one linear walk) is what makes every downstream mask, adjacency
    # insertion order, and node order byte-identical to from-scratch.
    index = index_function(func)
    new_ids = index.ids
    trans_pos = [-1] * len(old_index)
    for old_id, reg in enumerate(old_index.regs):
        if isinstance(reg, PReg):
            new = reg
        elif reg in dropped:
            continue
        else:
            new = rename.get(reg)
            if new is None:
                if plan.strict:
                    return None
                continue  # occurs only in re-scanned blocks: rediscover
        new_id = new_ids.get(new)
        if new_id is None:
            if plan.strict:
                return None
            continue  # no longer occurs anywhere in the new version
        trans_pos[old_id] = new_id

    old_gen = old_liv.use_mask
    old_kill = old_liv.defs_mask
    old_in = old_liv.live_in_mask
    old_out = old_liv.live_out_mask

    # Seed bits of registers occurring in re-scanned base blocks are
    # unsafe: the edit may have removed the occurrence sustaining them,
    # and a stale bit can keep itself alive around a CFG cycle.  Drop
    # them before translation; the sweeps re-add the true bits.
    stale = 0
    for label in plan.stale_labels:
        stale |= old_gen.get(label, 0) | old_kill.get(label, 0)

    # --- liveness: reuse untouched summaries, re-solve the fixed point -
    with phase("liveness"):
        gen: dict[str, int] = {}
        kill: dict[str, int] = {}
        # One batched column permute translates every untouched
        # summary, gate mask, and the whole seed solution at once.
        to_translate: list[int] = []
        untouched_labels: list[str] = []
        for blk in func.blocks:
            label = blk.label
            if label not in touched:
                g_old = old_gen.get(label)
                if g_old is None:
                    return None
                untouched_labels.append(label)
                to_translate.append(g_old)
                to_translate.append(old_kill[label])
                to_translate.append(old_out[label])
        seed_base = len(to_translate)
        if not plan.seed_zero:
            for blk in func.blocks:
                label = blk.label
                to_translate.append(old_in.get(label, 0) & ~stale)
        translated = matrix.translate_masks(
            to_translate, trans_pos, len(old_index), len(index)
        )
        summaries = {
            label: (translated[3 * i], translated[3 * i + 1])
            for i, label in enumerate(untouched_labels)
        }
        #: untouched label -> faithful translation of its old live-out
        #: (the row-reuse gate; unmasked, unlike the seeds)
        gate_out = {
            label: translated[3 * i + 2]
            for i, label in enumerate(untouched_labels)
        }
        for blk in func.blocks:
            label = blk.label
            if label in touched:
                g, k, phi_defs = _block_masks(blk, index)
                if phi_defs:
                    return None  # allocation-time funcs are phi-free
                gen[label], kill[label] = g, k
            else:
                gen[label], kill[label] = summaries[label]
        seed_in = {
            blk.label: 0 if plan.seed_zero else translated[seed_base + j]
            for j, blk in enumerate(func.blocks)
        }

        with phase("solve"):
            # The translated seed sits below the new fixed point
            # (unstable bits dropped, survivors renamed), so the sweeps
            # converge to — and certify — the unique fixed point.
            live_in, live_out = matrix.sweep_liveness(
                gen, kill, seed_in, cfg.succs, len(index)
            )

        # Set views materialize lazily — the spill-round loop only
        # reads the mask tables.
        liveness = LazySetsLiveness(index=index, live_in_mask=live_in,
                                    live_out_mask=live_out,
                                    use_mask=gen, defs_mask=kill)
        liveness.mark_pending()

    # An untouched block's row contributions replay its backward scan,
    # which starts from its live-out: reuse is exact only if that
    # live-out survived the edit (up to the rename).  Spill insertion
    # cannot change a survivor's liveness, so the gate is enabled only
    # for edit deltas.
    rescan_rows = set(touched)
    if plan.gate_rows:
        for blk in func.blocks:
            label = blk.label
            if label not in touched and gate_out[label] != live_out[label]:
                rescan_rows.add(label)

    # --- interference: translate untouched rows, re-scan the rest -----
    with phase("interference"):
        moves: list[Move] = []
        rows: dict[int, int] = {}
        block_rows: dict[str, dict[int, int]] = {}
        with phase("rows"):
            # Gather every untouched row first so one batched permute
            # translates them all.
            row_masks: list[int] = []
            pending_rows: dict[str, list[tuple[int, int]]] = {}
            for blk in func.blocks:
                label = blk.label
                if label in rescan_rows:
                    continue
                old_rows = prev.block_rows.get(label)
                if old_rows is None:
                    return None
                placed: list[tuple[int, int]] = []
                for i, row in old_rows.items():
                    new_id = trans_pos[i]
                    if new_id < 0:
                        continue  # a deleted register's row vanishes
                    placed.append((new_id, len(row_masks)))
                    row_masks.append(row)
                pending_rows[label] = placed
            translated_rows = matrix.translate_masks(
                row_masks, trans_pos, len(old_index), len(index)
            )
            for blk in func.blocks:
                label = blk.label
                local: dict[int, int] = {}
                if label in rescan_rows:
                    scan_block_rows(blk, index, live_out[label], local,
                                    moves)
                else:
                    for new_id, mi in pending_rows[label]:
                        local[new_id] = translated_rows[mi]
                    # Renumber rewrites instructions in place, so the
                    # block's Move objects persist; collect them in
                    # builder order.
                    for instr in reversed(blk.instrs):
                        if isinstance(instr, Move):
                            moves.append(instr)
                block_rows[label] = local
                for i, row in local.items():
                    rows[i] = rows.get(i, 0) | row
        sym = matrix.symmetrize_matrix(
            matrix.rows_matrix(rows, len(index)), len(index)
        )
        ig = InterferenceGraph(moves=moves, index=index,
                               rows=matrix.MatrixRows(sym))
        ig.block_rows = block_rows

    # --- spill costs: rename untouched contributions, re-scan touched --
    with phase("spill-costs"):
        costs: dict[VReg, float] = {}
        block_costs: dict[str, dict[VReg, float]] = {}
        for blk in func.blocks:
            label = blk.label
            rescan = label in touched
            if not rescan and plan.gate_costs \
                    and prev.loops.freq(label) != loops.freq(label):
                rescan = True
            if rescan:
                # Re-weight with the policy the retained analyses were
                # computed under, or patched and from-scratch costs
                # would disagree for non-default policies.
                local = block_spill_costs(blk, loops.freq(label),
                                          prev.policy)
            else:
                old_local = prev.block_costs.get(label)
                if old_local is None:
                    return None
                local = {}
                for v, c in old_local.items():
                    nv = rename.get(v)
                    if nv is None:
                        # A register without a rename can only occur in
                        # re-scanned blocks; reaching here means the
                        # delta lied.
                        return None
                    local[nv] = c
            block_costs[label] = local
            for v, c in local.items():
                costs[v] = costs.get(v, 0.0) + c
        for param in func.params:
            if isinstance(param, VReg):
                costs.setdefault(param, 0.0)

    return PatchedAnalyses(liveness=liveness, ig=ig, spill_costs=costs,
                           block_rows=block_rows, block_costs=block_costs,
                           cfg=cfg, loops=loops)
