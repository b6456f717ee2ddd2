"""Correctness oracles for the production allocator paths.

Every hot step of the allocator has exactly one production
implementation.  This module holds the independent references the
tests compare production against directly:

* **dataflow** — the set-based liveness and interference builders,
  written straight from the definitions (closest to the paper), and
  the scalar int-row CPG replay;
* **renumber** — the quadratic def-scanning web renumbering
  (:func:`renumber_reference`, compared by :func:`compare_renumber`);
* **simplify/select** — the rescan-per-batch simplify engine and the
  linear ready-queue scan of the preference selector, which recomputes
  every differential from the assignment;
* **dataflow scan** — the per-instruction interference row scan of one
  block (:func:`scan_block_rows`), the reference for the packed scan;
* **spill rounds and edits** — the from-scratch re-analysis (CFG and
  loop nest included), compared phase by phase with
  :func:`compare_analyses`, and the from-scratch allocation of an
  edited function (:func:`check_session_against_scratch`);
* **dispatch wire** — the shipped function itself
  (:func:`check_wire_jobs`).

Besides the plain oracle functions, context managers install each
reference into a real allocation run:

* ``validate_*`` keep production running and compare each of its
  decisions or results with the oracle as it happens, raising
  :class:`OracleMismatch` on the first divergence;
* ``scan_select`` and ``scratch_rounds`` replace the production
  engine with the oracle, for whole-run identity comparisons
  (``scratch_rounds`` rebuilds each spill round's CFG and loop nest
  instead of carrying them over).
"""

from __future__ import annotations

import importlib
import pickle
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.analysis.indexing import iter_bits
from repro.analysis.liveness import Liveness
from repro.analysis.renumber import (
    RenumberResult,
    Web,
    _lowest_bit,
    _UnionFind,
    renumber,
)
from repro.cfg.analysis import build_cfg
from repro.core import allocator as core_allocator
from repro.core.cpg import BOTTOM, TOP, ColoringPrecedenceGraph, _wig_rows
from repro.core.select import PreferenceSelector
from repro.errors import AllocationError
from repro.exec import wire
from repro.ir.clone import clone_function
from repro.ir.instructions import Move, Phi
from repro.ir.printer import print_function
from repro.ir.values import PReg, VReg
from repro.profiling import phase
from repro.regalloc import base as regalloc_base
from repro.regalloc.simplify import choose_spill_candidate, tie_break_fn
from repro.regalloc.worklist import DegreeWorklist

# ``repro.regalloc`` re-exports the ``simplify`` function under the
# submodule's name, so fetch the module itself.
simplify_mod = importlib.import_module("repro.regalloc.simplify")


class OracleMismatch(AllocationError):
    """Production diverged from its oracle."""


def _regs(values) -> set:
    return {v for v in values if isinstance(v, (VReg, PReg))}


# ----------------------------------------------------------------------
# liveness: the direct set-based fixed point

def block_uses_defs(block) -> tuple[set, set]:
    """Upward-exposed uses and defs of one block (phi arms excluded)."""
    uses: set = set()
    defs: set = set()
    for instr in block.instrs:
        if not isinstance(instr, Phi):
            for u in _regs(instr.uses()):
                if u not in defs:
                    uses.add(u)
        defs |= _regs(instr.defs())
    return uses, defs


def phi_uses_on_edge(succ_block, pred_label: str) -> set:
    """Registers consumed by ``succ_block``'s phis along edge from ``pred``."""
    out: set = set()
    for phi in succ_block.phis():
        value = phi.incoming.get(pred_label)
        if isinstance(value, (VReg, PReg)):
            out.add(value)
    return out


def compute_liveness_reference(func, cfg=None) -> Liveness:
    """Block liveness by round-robin set iteration to the fixed point."""
    if cfg is None:
        cfg = build_cfg(func)
    blocks = func.block_map()
    result = Liveness()
    for label, blk in blocks.items():
        uses, defs = block_uses_defs(blk)
        result.use[label] = uses
        result.defs[label] = defs
        result.live_in[label] = set()
        result.live_out[label] = set()

    # Iterate in postorder for fast convergence of a backward problem.
    # Unreachable blocks still get (empty) entries but aren't iterated.
    order = cfg.postorder()
    changed = True
    while changed:
        changed = False
        for label in order:
            blk = blocks[label]
            out: set = set()
            for succ in cfg.succs[label]:
                sblk = blocks[succ]
                phi_defs = _regs(p.dst for p in sblk.phis())
                out |= result.live_in[succ] - phi_defs
                out |= phi_uses_on_edge(sblk, label)
            new_in = result.use[label] | (out - result.defs[label])
            # Phi destinations are defined at the very top of the block,
            # so they are not live-in even if used later in the block.
            new_in -= _regs(p.dst for p in blk.phis())
            if out != result.live_out[label] or new_in != result.live_in[label]:
                result.live_out[label] = out
                result.live_in[label] = new_in
                changed = True
    return result


def instruction_liveness_reference(func, liveness) -> dict[int, set]:
    """Live sets *after* each instruction by a backward set scan."""
    after: dict[int, set] = {}
    for blk in func.blocks:
        live = set(liveness.live_out[blk.label])
        for instr in reversed(blk.instrs):
            after[id(instr)] = set(live)
            live -= _regs(instr.defs())
            if not isinstance(instr, Phi):
                live |= _regs(instr.uses())
    return after


def compare_liveness(got: Liveness, want: Liveness) -> list[str]:
    """Production liveness against the reference, set for set, in the
    same block order; the mask twins must decode to the same sets."""
    problems = []
    for name in ("live_in", "live_out", "use", "defs"):
        g, w = getattr(got, name), getattr(want, name)
        if list(g) != list(w):
            problems.append(f"liveness.{name} block order differs")
        elif g != w:
            label = next(la for la in w if g[la] != w[la])
            problems.append(f"liveness.{name} differs at block {label!r}")
    set_of = got.index.set_of
    for name in ("live_in", "live_out", "use", "defs"):
        masks = getattr(got, {"use": "use_mask",
                              "defs": "defs_mask"}.get(name, name + "_mask"))
        if {la: set_of(m) for la, m in masks.items()} != getattr(got, name):
            problems.append(f"liveness.{name} masks disagree with sets")
    return problems


# ----------------------------------------------------------------------
# interference: the direct set-based builder

def build_interference_reference(func, cfg=None, liveness=None):
    """Chaitin's definition, one register set per block scan.

    ``liveness`` defaults to the set-based reference, so the oracle
    shares no code with the production kernels.
    """
    from repro.analysis.interference import InterferenceGraph

    if cfg is None:
        cfg = build_cfg(func)
    if liveness is None:
        liveness = compute_liveness_reference(func, cfg)

    graph = InterferenceGraph()
    for param in func.params:
        graph.ensure(param)

    for blk in func.blocks:
        live = set(liveness.live_out[blk.label])
        for instr in reversed(blk.instrs):
            if isinstance(instr, Phi):
                raise ValueError("interference runs after out-of-SSA")
            defs = [d for d in instr.defs() if isinstance(d, (VReg, PReg))]
            uses = [u for u in instr.uses() if isinstance(u, (VReg, PReg))]
            for reg in defs + uses:
                graph.ensure(reg)

            if isinstance(instr, Move):
                graph.moves.append(instr)
                live.discard(instr.src)

            for d in defs:
                for other in live:
                    graph.add_edge(d, other)
                for d2 in defs:
                    graph.add_edge(d, d2)
            live -= set(defs)
            live |= set(uses)
    return graph


def scan_block_rows(blk, index, live_out: int, rows: dict[int, int],
                    moves: list) -> None:
    """Backward scan of one block, OR-ing one-sided rows into ``rows``.

    ``live_out`` is the block's live-out bitmask over ``index``.  The
    block's ``Move`` instructions are appended to ``moves`` in scan
    (reversed) order.  The per-instruction reference for
    :func:`repro.analysis.matrix.scan_packed_block`.
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


def compare_interference(got, want) -> list[str]:
    """Production graph against the reference: same nodes, same
    neighbor sets, same move list.

    Reads the production graph through ``row_set`` only, so the check
    leaves its dict-of-sets adjacency unmaterialized (materializing it
    would steer the coloring graphs off their packed-row fast paths).
    """
    problems = []
    if set(got.index.regs) != set(want.adjacency):
        problems.append("interference node sets differ")
    for node, row in want.adjacency.items():
        if got.row_set(node) != row:
            problems.append(f"interference adjacency differs at {node}")
            break
    if ([(m.dst, m.src) for m in got.moves]
            != [(m.dst, m.src) for m in want.moves]):
        problems.append("interference move list differs")
    return problems


# ----------------------------------------------------------------------
# CPG: the scalar int-row replay

def build_cpg_int(graph, wig_adjacency, simplification):
    """The Section 5.2 replay with one int row per node, scalar closure.

    The step-7 transitivity test is a single ``&`` against an
    incrementally-maintained reachability closure, and every edge goes
    through :meth:`ColoringPrecedenceGraph.add_edge` /
    ``remove_edge`` — the straightforward form the production replay's
    batched bookkeeping must reproduce down to dict insertion order and
    the edge version counter.
    """
    k = graph.k
    nodes, idx, adj, preg_deg = _wig_rows(graph, wig_adjacency)
    n = len(nodes)
    bottom_bit = 1 << n

    cpg = ColoringPrecedenceGraph()
    cpg.ensure(TOP)
    cpg.ensure(BOTTOM)
    alive = (1 << n) - 1
    ready = 0
    created = 0
    #: per-node mask of CPG-reachable nodes (dense ids plus the bottom bit)
    reach = [0] * n

    # Step 4: initial low-degree nodes point at bottom and are ready;
    # potential-spill nodes point at bottom but are not ready.
    optimistic = simplification.optimistic
    for i, node in enumerate(nodes):
        if (adj[i] & alive).bit_count() + preg_deg[i] < k:
            cpg.add_edge(node, BOTTOM)
            reach[i] |= bottom_bit
            created |= 1 << i
            ready |= 1 << i
        elif node in optimistic:
            cpg.add_edge(node, BOTTOM)
            reach[i] |= bottom_bit
            created |= 1 << i

    # Steps 5-9: replay removals in simplification order.
    for popped in simplification.stack:
        pi = idx.get(popped)
        if pi is None or not (alive >> pi) & 1:
            raise AllocationError(f"stack node {popped} missing from WIG")
        if not (created >> pi) & 1:
            raise AllocationError(
                f"CPG invariant broken: {popped} popped before being "
                f"created (neither low-degree, optimistic, nor a "
                f"neighbor of an earlier pop)"
            )
        popped_bit = 1 << pi
        alive &= ~popped_bit
        neighbors = adj[pi] & alive
        created |= neighbors
        for wi in iter_bits(neighbors):
            cpg.ensure(nodes[wi])

        non_ready = neighbors & ~ready
        if non_ready:
            popped_reach = reach[pi] | popped_bit
            popped_to_bottom = reach[pi] & bottom_bit
            # Bit order is ascending vreg id — the step-7 edge order.
            for wi in iter_bits(non_ready):
                # Step 7: skip (and never create) transitive edges.
                if not reach[wi] & popped_bit:
                    w = nodes[wi]
                    cpg.add_edge(w, popped)
                    reach[wi] |= popped_reach
                    # A pre-existing w -> bottom edge is now transitive
                    # whenever `popped` itself reaches bottom.
                    if popped_to_bottom and BOTTOM in cpg.succs.get(w, ()):
                        cpg.remove_edge(w, BOTTOM)
        else:
            cpg.add_edge(TOP, popped)

        # Step 8: removal may have made neighbors low-degree.
        for wi in iter_bits(non_ready):
            if (adj[wi] & alive).bit_count() + preg_deg[wi] < k:
                ready |= 1 << wi

    return cpg


def compare_cpgs(got, want) -> list[str]:
    """Edge-for-edge CPG identity, including insertion order (the
    selector's dict iteration observes it) and the version counter."""
    problems = []
    if list(got.succs) != list(want.succs):
        problems.append("CPG succs insertion order differs")
    if list(got.preds) != list(want.preds):
        problems.append("CPG preds insertion order differs")
    if got.succs != want.succs:
        problems.append("CPG successor sets differ")
    if got.preds != want.preds:
        problems.append("CPG predecessor sets differ")
    if got._version != want._version:
        problems.append("CPG edge version counters differ")
    return problems


# ----------------------------------------------------------------------
# renumber: the quadratic scan the linear-time pass replaced

def _def_id_at(def_ids_of, defs, label: str, idx: int, var: VReg) -> int:
    for def_id in def_ids_of[var]:
        d_label, d_idx, _ = defs[def_id]
        if d_label == label and d_idx == idx:
            return def_id
    raise AssertionError(f"no def record for {var} at {label}:{idx}")


def renumber_reference(func, cfg=None) -> RenumberResult:
    """Web renumbering with per-block scans of every def (gen/kill), a
    full per-block seeding of each variable's reaching defs, and a
    linear def-id search.  Same result as ``repro.analysis.renumber``.
    """
    if any(isinstance(i, Phi) for b in func.blocks for i in b.instrs):
        raise ValueError("renumber runs after out-of-SSA (phis present)")
    if cfg is None:
        cfg = build_cfg(func)

    defs: list[tuple[str, int, VReg]] = []
    def_ids_of: dict[VReg, list[int]] = {}

    def add_def(label: str, index: int, var: VReg) -> int:
        def_id = len(defs)
        defs.append((label, index, var))
        def_ids_of.setdefault(var, []).append(def_id)
        return def_id

    entry_label = func.entry.label
    synthetic: dict[VReg, int] = {}
    for param in func.params:
        synthetic[param] = add_def(entry_label, -1, param)
    for blk in func.blocks:
        for idx, instr in enumerate(blk.instrs):
            for d in instr.defs():
                if isinstance(d, VReg):
                    add_def(blk.label, idx, d)
    for blk in func.blocks:
        for instr in blk.instrs:
            for u in instr.uses():
                if isinstance(u, VReg) and u not in def_ids_of:
                    synthetic[u] = add_def(entry_label, -1, u)

    n = len(defs)
    masks_of: dict[VReg, int] = {}
    for var, ids in def_ids_of.items():
        mask = 0
        for i in ids:
            mask |= 1 << i
        masks_of[var] = mask

    gen: dict[str, int] = {}
    kill: dict[str, int] = {}
    for blk in func.blocks:
        g = 0
        killed_vars: set[VReg] = set()
        current: dict[VReg, int] = {}
        for def_id, (label, idx, var) in enumerate(defs):
            if label == blk.label:
                current[var] = def_id
                killed_vars.add(var)
        for var, def_id in current.items():
            g |= 1 << def_id
        k = 0
        for var in killed_vars:
            k |= masks_of[var]
        k &= ~g
        gen[blk.label] = g
        kill[blk.label] = k

    reach_in: dict[str, int] = {blk.label: 0 for blk in func.blocks}
    reach_out: dict[str, int] = {
        blk.label: gen[blk.label] for blk in func.blocks
    }
    order = cfg.reverse_postorder()
    changed = True
    while changed:
        changed = False
        for label in order:
            rin = 0
            for pred in cfg.preds[label]:
                rin |= reach_out[pred]
            rout = gen[label] | (rin & ~kill[label])
            if rin != reach_in[label] or rout != reach_out[label]:
                reach_in[label] = rin
                reach_out[label] = rout
                changed = True

    uf = _UnionFind(n)
    blocks = func.block_map()
    use_class: dict[tuple[int, VReg], int] = {}
    for label in order:
        blk = blocks[label]
        current_def: dict[VReg, int] = {}
        rin = reach_in[label]
        for var, mask in masks_of.items():
            live_defs = rin & mask
            if live_defs:
                current_def[var] = live_defs
        for var, def_id in synthetic.items():
            current_def.setdefault(var, 1 << def_id)
        for idx, instr in enumerate(blk.instrs):
            for u in instr.uses():
                if not isinstance(u, VReg):
                    continue
                mask = current_def.get(u, 0)
                if mask == 0:
                    mask = 1 << synthetic.setdefault(
                        u, add_def(entry_label, -1, u)
                    )
                first = _lowest_bit(mask)
                rest = mask & (mask - 1)
                while rest:
                    bit = _lowest_bit(rest)
                    uf.union(first, bit)
                    rest &= rest - 1
                use_class[(id(instr), u)] = first
            for d in instr.defs():
                if isinstance(d, VReg):
                    current_def[d] = 1 << _def_id_at(def_ids_of, defs, label,
                                                     idx, d)

    web_of_class: dict[int, Web] = {}
    result = RenumberResult()

    def web_for(def_id: int, var: VReg) -> Web:
        root = uf.find(def_id)
        if root not in web_of_class:
            count = result.split_counts.get(var, 0)
            result.split_counts[var] = count + 1
            name = var.name or f"{var.rclass.prefix()}{var.id}"
            if count:
                name = f"{name}.w{count}"
            reg = func.new_vreg(var.rclass, name=name, no_spill=var.no_spill)
            web = Web(reg=reg, original=var)
            web_of_class[root] = web
            result.webs.append(web)
        return web_of_class[root]

    reachable = set(order)
    for blk in func.blocks:
        if blk.label not in reachable:
            continue
        for idx, instr in enumerate(blk.instrs):
            use_map = {}
            for u in instr.uses():
                if isinstance(u, VReg):
                    web = web_for(use_class[(id(instr), u)], u)
                    web.n_uses += 1
                    use_map[u] = web.reg
            def_map = {}
            for d in instr.defs():
                if isinstance(d, VReg):
                    def_id = _def_id_at(def_ids_of, defs, blk.label, idx, d)
                    web = web_for(def_id, d)
                    web.n_defs += 1
                    def_map[d] = web.reg
            if use_map:
                instr.replace_uses(use_map)
            if def_map:
                instr.replace_defs(def_map)

    func.params = [
        web_for(synthetic[p], p).reg if p in synthetic else p
        for p in func.params
    ]
    return result


def compare_renumber(func) -> list[str]:
    """Renumber two clones of ``func`` (production and reference) and
    list every difference: printed function, split counts, webs."""
    got_func, want_func = clone_function(func), clone_function(func)
    got = renumber(got_func)
    want = renumber_reference(want_func)
    problems = []
    if print_function(got_func) != print_function(want_func):
        problems.append("renumbered functions print differently")
    if got.split_counts != want.split_counts:
        problems.append("split_counts differ")

    def webs(result):
        return [(str(w.reg), str(w.original), w.n_defs, w.n_uses)
                for w in result.webs]

    if webs(got) != webs(want):
        problems.append("web lists differ")
    return problems


# ----------------------------------------------------------------------
# simplify / select: the scan engines

def simplify_scan(graph, optimistic, result, policy) -> None:
    """The original rescan-per-batch simplify engine.

    Drop-in for ``repro.regalloc.simplify._simplify_indexed``.
    """
    tie_break = tie_break_fn(policy)
    while graph.active:
        low = [n for n in graph.active if not graph.significant(n)]
        if low:
            # Remove all currently-low-degree nodes in a deterministic
            # order; removing one can only lower other degrees, so batch
            # removal stays valid.
            for node in sorted(low, key=tie_break):
                if node in graph.active and not graph.significant(node):
                    graph.remove(node)
                    result.stack.append(node)
            continue
        with phase("spill_pick"):
            candidate = choose_spill_candidate(graph, graph.active, policy)
        graph.remove(candidate)
        if optimistic:
            result.stack.append(candidate)
            result.optimistic.add(candidate)
        else:
            result.spilled.add(candidate)


def free_mask_reference(selector: PreferenceSelector, node) -> int:
    """Colors no colored or physical neighbor of ``node`` holds, from the
    assignment and the adjacency alone."""
    color_bit = selector._color_bit
    taken = 0
    for n in selector.graph.adj.get(node, ()):
        color = n if isinstance(n, PReg) else selector.assignment.get(n)
        if color is not None:
            taken |= color_bit.get(color, 0)
    return selector._all_mask & ~taken


def differential_reference(selector: PreferenceSelector, node) -> float:
    """Section 5.3's strength differential of ``node``, recomputed from
    scratch: its honorable asks under :func:`free_mask_reference`,
    strongest minus weakest (a lone ask's own strength, ``-inf`` for
    none).  Reads none of the selector's incremental state."""
    strengths = [strength for strength, _mask in selector._usable_asks(
        node, free_mask_reference(selector, node))]
    if not strengths:
        return float("-inf")
    if len(strengths) == 1:
        return strengths[0]
    return max(strengths) - min(strengths)


def choose_node_scan(selector: PreferenceSelector, queue) -> VReg:
    """Linear scan of the ready set for the largest pick key, every
    differential recomputed by :func:`differential_reference` (the
    selector's free-mask, ask and differential caches are not read, so
    a stale one shows up as a different pick)."""
    spill_cost = selector.costs.spill_cost
    weights = selector._key_weights
    best = None
    best_key = None
    for node in queue:
        differential = differential_reference(selector, node)
        if weights is None:
            key = (differential, spill_cost(node), -node.id)
        else:
            key = (weights[0] * differential,
                   weights[1] * spill_cost(node),
                   weights[2] * -node.id)
        if best_key is None or key > best_key:
            best, best_key = node, key
    assert best is not None
    return best


class ScanPreferenceSelector(PreferenceSelector):
    """The selector picking by :func:`choose_node_scan`."""

    def _next_node(self) -> VReg:
        node = choose_node_scan(self, set(self._ready._members))
        self._ready.discard(node)
        return node


class CheckedPreferenceSelector(PreferenceSelector):
    """The production selector, every pick checked against the scan."""

    def _next_node(self) -> VReg:
        queue = set(self._ready._members)
        node = super()._next_node()
        oracle = choose_node_scan(self, queue)
        # Value equality: equal-but-distinct VReg instances occur under
        # cached/unpickled analyses, and every index keys by eq/hash.
        if node != oracle:
            raise OracleMismatch(
                f"select-index validation failed: ready heap picked "
                f"{node}, scan oracle {oracle}"
            )
        return node


class CheckedDegreeWorklist(DegreeWorklist):
    """The production worklist, every batch and spill pick checked
    against a rescan of the graph's active nodes."""

    def take_batch(self):
        batch = super().take_batch()
        graph = self.graph
        oracle = sorted(
            (n for n in graph.active if not graph.significant(n)),
            key=self.tie_break,
        )
        if batch != oracle:
            raise OracleMismatch(
                f"select-index validation failed: low-degree batch "
                f"{[str(n) for n in batch]} != scan oracle "
                f"{[str(n) for n in oracle]}"
            )
        return batch

    def pop_spill(self):
        graph = self.graph

        def score(node):
            if self.metric is None:
                metric = graph.spill_cost(node) / max(graph.degree(node), 1)
            else:
                metric = self.metric(graph, node)
            return metric, self.tie_break(node)

        oracle = min(graph.active, key=score) if graph.active else None
        node = super().pop_spill()
        if node != oracle:
            raise OracleMismatch(
                f"select-index validation failed: spill heap picked "
                f"{node}, scan oracle {oracle}"
            )
        return node


@contextmanager
def scan_select():
    """Run simplify and select on the scan oracles instead."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            simplify_mod, "_simplify_indexed", simplify_scan))
        stack.enter_context(mock.patch.object(
            core_allocator, "PreferenceSelector", ScanPreferenceSelector))
        yield


@contextmanager
def validate_select():
    """Check every simplify batch, spill pick and selector pick of the
    production engines against the scan oracles as they happen."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            simplify_mod, "DegreeWorklist", CheckedDegreeWorklist))
        stack.enter_context(mock.patch.object(
            core_allocator, "PreferenceSelector",
            CheckedPreferenceSelector))
        yield


@contextmanager
def validate_dataflow():
    """Check every liveness solve, interference build and CPG replay of
    an allocation run against the references as it happens."""
    real_liveness = regalloc_base.compute_liveness
    real_interference = regalloc_base.build_interference
    real_cpg = core_allocator.build_cpg

    def liveness(func, cfg=None):
        got = real_liveness(func, cfg)
        problems = compare_liveness(
            got, compute_liveness_reference(func, cfg))
        if problems:
            raise OracleMismatch("liveness oracle: " + "; ".join(problems))
        return got

    def interference(func, cfg=None, liveness=None):
        got = real_interference(func, cfg, liveness)
        problems = compare_interference(
            got, build_interference_reference(func, cfg))
        if problems:
            raise OracleMismatch(
                "interference oracle: " + "; ".join(problems))
        return got

    def cpg(graph, wig_adjacency, simplification):
        got = real_cpg(graph, wig_adjacency, simplification)
        problems = compare_cpgs(
            got, build_cpg_int(graph, wig_adjacency, simplification))
        if problems:
            raise OracleMismatch("CPG oracle: " + "; ".join(problems))
        return got

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            regalloc_base, "compute_liveness", liveness))
        stack.enter_context(mock.patch.object(
            regalloc_base, "build_interference", interference))
        stack.enter_context(mock.patch.object(
            core_allocator, "build_cpg", cpg))
        yield


# ----------------------------------------------------------------------
# spill rounds and edits: the from-scratch rebuild

def _mask_divergence(p_mask: dict, f_mask: dict, index) -> str:
    """Locate the first block/register where two mask tables differ."""
    for label in f_mask:
        p = p_mask.get(label)
        if p != f_mask[label]:
            if p is None:
                return f" at block {label!r} (missing)"
            diff = p ^ f_mask[label]
            bit = (diff & -diff).bit_length() - 1
            reg = (index.regs[bit] if index is not None
                   and bit < len(index.regs) else f"bit {bit}")
            return f" at block {label!r}, first at {reg}"
    extra = sorted(set(p_mask) - set(f_mask))
    return f" (extra block {extra[0]!r})" if extra else ""


def _set_divergence(p_sets: dict, f_sets: dict) -> str:
    for label in f_sets:
        p = p_sets.get(label, set())
        if p != f_sets[label]:
            delta = sorted(p ^ f_sets[label], key=str)
            return f" at block {label!r}, first at {delta[0]}"
    return ""


def compare_analyses(got, fresh) -> list[str]:
    """Differences between a production and a from-scratch round analysis.

    Empty list means value-identical (including the node insertion
    order the allocators' tie-breaks depend on).  Each problem names
    the first divergent block/register.
    """
    problems: list[str] = []
    p_liv, f_liv = got.liveness, fresh.liveness
    index = getattr(f_liv, "index", None)
    for name in ("live_in_mask", "live_out_mask", "use_mask", "defs_mask"):
        p, f = getattr(p_liv, name), getattr(f_liv, name)
        if p != f:
            problems.append(
                f"liveness.{name} differs{_mask_divergence(p, f, index)}"
            )
    for name in ("live_in", "live_out", "use", "defs"):
        p, f = getattr(p_liv, name), getattr(f_liv, name)
        if p != f:
            problems.append(
                f"liveness.{name} differs{_set_divergence(p, f)}"
            )
    p_ig, f_ig = got.ig, fresh.ig
    p_nodes, f_nodes = list(p_ig.adjacency), list(f_ig.adjacency)
    if p_nodes != f_nodes:
        at = next(
            (i for i, (a, b) in enumerate(zip(p_nodes, f_nodes)) if a != b),
            min(len(p_nodes), len(f_nodes)),
        )
        mine = p_nodes[at] if at < len(p_nodes) else "<end>"
        theirs = f_nodes[at] if at < len(f_nodes) else "<end>"
        problems.append(f"interference node order differs at position "
                        f"{at} ({mine} vs {theirs})")
    if p_ig.adjacency != f_ig.adjacency:
        detail = ""
        for node, f_row in f_ig.adjacency.items():
            p_row = p_ig.adjacency.get(node, set())
            if p_row != f_row:
                delta = sorted(p_row ^ f_row, key=str)
                detail = f" at {node}, first at {delta[0]}"
                break
        problems.append(f"interference adjacency differs{detail}")
    if [(m.dst, m.src) for m in p_ig.moves] != \
            [(m.dst, m.src) for m in f_ig.moves]:
        problems.append("move lists differ")
    if got.spill_costs != fresh.spill_costs:
        detail = ""
        for v in sorted(set(got.spill_costs) | set(fresh.spill_costs),
                        key=str):
            if got.spill_costs.get(v) != fresh.spill_costs.get(v):
                detail = (f" at {v} ({got.spill_costs.get(v)} vs "
                          f"{fresh.spill_costs.get(v)})")
                break
        problems.append(f"spill costs differ{detail}")
    return problems


@contextmanager
def validate_rounds():
    """Recompute every spill round from scratch, CFG and loop nest
    included, and raise on the first divergence from the production
    re-analysis (which carries the previous round's CFG and loops)."""
    real = regalloc_base.RoundAnalyses.apply_delta

    def checked(self, func):
        got = real(self, func)
        fresh = regalloc_base.compute_round_analyses(func, self.policy)
        problems = compare_analyses(got, fresh)
        if problems:
            raise OracleMismatch(
                "spill-round analyses diverged: " + "; ".join(problems))
        return got

    with mock.patch.object(regalloc_base.RoundAnalyses, "apply_delta",
                           checked):
        yield


@contextmanager
def scratch_rounds():
    """Re-analyze every spill round from scratch, CFG and loop nest
    included (the oracle for carrying them over)."""
    with mock.patch.object(
            regalloc_base.RoundAnalyses, "apply_delta",
            lambda self, func: regalloc_base.compute_round_analyses(
                func, self.policy)):
        yield


def check_session_against_scratch(session, parsed, machine, allocator,
                                  options, result, cycles) -> None:
    """Recompute ``parsed`` from scratch; raise on any divergence from
    an incremental allocation's analyses, code, stats or cycles."""
    from repro.analysis.renumber import renumber
    from repro.pipeline import prepare_function
    from repro.regalloc.base import allocate_function, compute_round_analyses
    from repro.regalloc.verify import verify_allocation
    from repro.service.protocol import cycles_to_dict, stats_to_dict
    from repro.sim.cycles import estimate_cycles

    prepared = prepare_function(clone_function(parsed), machine)
    ref = clone_function(prepared)
    renumber(ref)
    fresh = compute_round_analyses(ref, options.policy)
    problems = compare_analyses(session.analyses, fresh)
    if problems:
        raise OracleMismatch(
            f"incremental edit analyses diverged for {session.name!r}: "
            + "; ".join(problems)
        )
    func = clone_function(prepared)
    scratch = allocate_function(func, machine, allocator, options=options,
                                round0=fresh)
    if options.verify:
        verify_allocation(func, machine)
    if print_function(result.func) != print_function(func):
        raise OracleMismatch(f"incremental edit allocation diverged from "
                             f"scratch for {session.name!r}")
    if stats_to_dict(result.stats) != stats_to_dict(scratch.stats):
        raise OracleMismatch(f"incremental edit stats diverged from "
                             f"scratch for {session.name!r}")
    if cycles_to_dict(cycles) != cycles_to_dict(
            estimate_cycles(func, machine)):
        raise OracleMismatch(f"incremental edit cycle estimate diverged "
                             f"from scratch for {session.name!r}")


def validated_incremental(session, func, machine, allocator, options):
    """:func:`~repro.service.session.allocate_function_incremental`,
    checked against the from-scratch path whenever it advanced a
    session."""
    from repro.service.session import allocate_function_incremental

    out = allocate_function_incremental(session, func, machine, allocator,
                                        options)
    if session is not None:
        check_session_against_scratch(out.session, func, machine,
                                      allocator, options, out.result,
                                      out.cycles)
    return out


def scratch_incremental(session, func, machine, allocator, options):
    """The from-scratch rung for every version (the session oracle)."""
    from repro.service.session import allocate_function_incremental

    return allocate_function_incremental(None, func, machine, allocator,
                                         options)


# ----------------------------------------------------------------------
# dispatch wire: decoded functions against the shipped ones

def check_wire_jobs(payloads, jobs) -> None:
    """Resolve each codec control tuple and compare its function with
    the original payload's after a pickle round trip (what a pickled
    dispatch would have delivered); raise on the first divergence."""
    for payload, job in zip(payloads, jobs):
        decoded = wire.job_function(job)
        shipped = pickle.loads(pickle.dumps(payload[0],
                                            pickle.HIGHEST_PROTOCOL))
        if print_function(decoded) != print_function(shipped):
            raise OracleMismatch(
                f"wire: decoded function {decoded.name!r} diverges from "
                f"the shipped function {shipped.name!r}")
