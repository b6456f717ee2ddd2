"""Correctness oracles for the production allocator paths.

Every hot step of the allocator has exactly one production
implementation.  This module holds the independent references the
tests compare production against directly:

* **dataflow** — the set-based liveness and interference builders,
  written straight from the definitions (closest to the paper), and
  the set-based CPG replay over the reference interference graph;
* **coloring graph** — :class:`SetAllocGraph`, the register-set
  coloring graph (removal, merging, edge insertion) that the dense-id
  :class:`~repro.regalloc.igraph.AllocGraph` is checked against;
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
* **IR text** — the regex-per-form parser (:func:`parse_module_reference`)
  that the one-pass :mod:`repro.ir.parser` is checked against, read out
  for comparison by :func:`parsed_shape`.

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
import re
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from unittest import mock

from repro.analysis.liveness import Liveness, instruction_liveness_masks
from repro.analysis.renumber import (
    RenumberResult,
    Web,
    _lowest_bit,
    _UnionFind,
    renumber,
)
from repro.cfg.analysis import build_cfg
from repro.core import allocator as core_allocator
from repro.core.cpg import BOTTOM, TOP
from repro.core.select import PreferenceSelector
from repro.errors import AllocationError, ParseError
from repro.ir.function import BasicBlock, Function, Module
from repro.ir.clone import clone_function
from repro.ir.instructions import (
    COMPARE_OPS,
    FLOAT_BINOPS,
    INT_BINOPS,
    UNARY_OPS,
    BinOp,
    Branch,
    Call,
    ConstInst,
    Jump,
    Load,
    Move,
    Phi,
    Ret,
    SpillLoad,
    SpillStore,
    Store,
    UnaryOp,
)
from repro.ir.printer import print_function
from repro.ir.values import Const, PReg, RegClass, VReg
from repro.profiling import phase
from repro.regalloc import base as regalloc_base
from repro.regalloc.simplify import _tie_break, choose_spill_candidate
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


def instruction_liveness(func, liveness) -> dict[int, set]:
    """Production's live masks after each instruction
    (:func:`~repro.analysis.liveness.instruction_liveness_masks`),
    decoded into register sets for comparison with the reference."""
    index, after = instruction_liveness_masks(func, liveness)
    return {key: index.set_of(mask) for key, mask in after.items()}


def live_across_instr(liveness, block, index: int) -> set:
    """Registers live immediately *after* ``block.instrs[index]``: a
    backward set scan of the block suffix from ``liveness.live_out``."""
    live = set(liveness.live_out[block.label])
    for instr in reversed(block.instrs[index + 1:]):
        live -= _regs(instr.defs())
        if not isinstance(instr, Phi):
            live |= _regs(instr.uses())
    return live


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

def _link(adjacency: dict, a, b) -> None:
    """Chaitin's edge rules: no self edges, none across classes, and
    physical-physical edges stay implicit."""
    if a == b or a.rclass is not b.rclass:
        return
    if isinstance(a, PReg) and isinstance(b, PReg):
        return
    adjacency.setdefault(a, set()).add(b)
    adjacency.setdefault(b, set()).add(a)


def build_interference_reference(func, cfg=None, liveness=None):
    """Chaitin's definition, one register set per block scan.

    Returns ``adjacency`` (register -> neighbor set) and ``moves``.
    ``liveness`` defaults to the set-based reference, so the oracle
    shares no code with the production kernels.
    """
    if cfg is None:
        cfg = build_cfg(func)
    if liveness is None:
        liveness = compute_liveness_reference(func, cfg)

    adjacency: dict = {param: set() for param in func.params}
    moves: list = []
    for blk in func.blocks:
        live = set(liveness.live_out[blk.label])
        for instr in reversed(blk.instrs):
            if isinstance(instr, Phi):
                raise ValueError("interference runs after out-of-SSA")
            defs = [d for d in instr.defs() if isinstance(d, (VReg, PReg))]
            uses = [u for u in instr.uses() if isinstance(u, (VReg, PReg))]
            for reg in defs + uses:
                adjacency.setdefault(reg, set())

            if isinstance(instr, Move):
                moves.append(instr)
                live.discard(instr.src)

            for d in defs:
                for other in live:
                    _link(adjacency, d, other)
                for d2 in defs:
                    _link(adjacency, d, d2)
            live -= set(defs)
            live |= set(uses)
    return SimpleNamespace(adjacency=adjacency, moves=moves)


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

    Decodes the production rows directly, so the check leaves the
    graph's lazy dict-of-sets view unmaterialized.
    """
    problems = []
    if set(got.index.regs) != set(want.adjacency):
        problems.append("interference node sets differ")
    for node, row in want.adjacency.items():
        if got.index.set_of(got.rows[got.index.ids[node]]) != row:
            problems.append(f"interference adjacency differs at {node}")
            break
    if ([(m.dst, m.src) for m in got.moves]
            != [(m.dst, m.src) for m in want.moves]):
        problems.append("interference move list differs")
    return problems


# ----------------------------------------------------------------------
# CPG: the set-based replay

def _reaches(succs: dict, a, b) -> bool:
    """DFS reachability a ->* b over successor sets."""
    stack, seen = [a], {a}
    while stack:
        node = stack.pop()
        if node == b:
            return True
        for nxt in succs.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def build_cpg_reference(adjacency: dict, k: int, wig_nodes,
                        simplification) -> dict:
    """The Section 5.2 replay over register sets, as successor sets.

    ``adjacency`` is a reference interference graph
    (:func:`build_interference_reference`), ``wig_nodes`` the live
    ranges in the WIG.  The step-7 transitivity tests are plain DFS
    walks over the edges built so far.
    """
    wig_nodes = set(wig_nodes)
    wig = {v: adjacency[v] & wig_nodes for v in wig_nodes}
    pregs = {v: sum(isinstance(w, PReg) for w in adjacency[v])
             for v in wig_nodes}
    alive = set(wig_nodes)

    def low(v) -> bool:
        return len(wig[v] & alive) + pregs[v] < k

    succs: dict = {TOP: set(), BOTTOM: set()}
    ready = set()
    # Step 4: initial low-degree nodes point at bottom and are ready;
    # potential-spill nodes point at bottom but are not ready.
    for v in wig_nodes:
        if low(v) or v in simplification.optimistic:
            succs[v] = {BOTTOM}
            if low(v):
                ready.add(v)
    # Steps 5-9: replay removals in simplification order.
    for popped in simplification.stack:
        if popped not in alive or popped not in succs:
            raise AllocationError(f"stack node {popped} out of order")
        alive.discard(popped)
        neighbors = wig[popped] & alive
        for w in neighbors:
            succs.setdefault(w, set())
        non_ready = neighbors - ready
        if not non_ready:
            succs[TOP].add(popped)
            continue
        to_bottom = _reaches(succs, popped, BOTTOM)
        for w in non_ready:
            # Step 7: skip transitive edges, and drop w -> bottom once
            # w reaches bottom through `popped`.
            if not _reaches(succs, w, popped):
                succs[w].add(popped)
                if to_bottom:
                    succs[w].discard(BOTTOM)
        # Step 8: removal may have made neighbors low-degree.
        ready |= {w for w in non_ready if low(w)}
    return succs


def compare_cpgs(got, want: dict) -> list[str]:
    """Edge-for-edge CPG identity against reference successor sets,
    plus :func:`check_cpg_preds` (the selector's indegrees come from
    ``pred``, which the successor view does not show)."""
    got_succs = got.succs
    if got_succs.keys() != want.keys():
        return ["CPG node sets differ"]
    for node, targets in want.items():
        if got_succs[node] != targets:
            return [f"CPG successors of {node} differ"]
    return check_cpg_preds(got)


def check_cpg_preds(cpg) -> list[str]:
    """``pred[i]`` must hold ``j`` exactly when ``succ[j]`` holds ``i``,
    for every id (edges from top are not predecessors)."""
    n = len(cpg.nodes)
    for i in range(n):
        want = {j for j in range(n) if cpg.succ[j] >> i & 1}
        got = {j for j in range(n) if cpg.pred[i] >> j & 1}
        if got != want:
            return [f"CPG predecessors of {cpg.nodes[i]} differ: "
                    f"{sorted(got)} != {sorted(want)} (by id)"]
    return []


# ----------------------------------------------------------------------
# coloring graph: register sets

class SetAllocGraph:
    """One class's coloring graph over register sets: neighbor sets,
    the active vregs and their degrees under ``remove``, ``merge`` and
    ``add_edge``, as the definitions state them.  Built from a reference
    interference graph (:func:`build_interference_reference`)."""

    def __init__(self, adjacency: dict, rclass, colors) -> None:
        self.adj = {n: set(ns) for n, ns in adjacency.items()
                    if n.rclass is rclass}
        for c in colors:
            self.adj.setdefault(c, set())
        self.active = {n for n in self.adj if isinstance(n, VReg)}
        self.degree = {n: len(self.adj[n]) for n in self.active}

    def _present(self, node) -> bool:
        return isinstance(node, PReg) or node in self.active

    def neighbors(self, node) -> set:
        return {n for n in self.adj.get(node, ()) if self._present(n)}

    def add_edge(self, a, b) -> None:
        if a == b or a.rclass is not b.rclass:
            return
        if isinstance(a, PReg) and isinstance(b, PReg):
            return
        if b in self.adj.setdefault(a, set()):
            return
        self.adj[a].add(b)
        self.adj.setdefault(b, set()).add(a)
        for x, y in ((a, b), (b, a)):
            if x in self.active and self._present(y):
                self.degree[x] += 1

    def remove(self, node) -> None:
        self.active.remove(node)
        for n in self.adj[node]:
            if n in self.active:
                self.degree[n] -= 1

    def merge(self, kept, gone) -> None:
        self.active.remove(gone)
        kept_adj = self.adj.setdefault(kept, set())
        for n in list(self.adj[gone]):
            self.adj[n].discard(gone)
            if n == kept:
                if isinstance(kept, VReg):
                    self.degree[kept] -= 1
                continue
            if n not in kept_adj:
                self.add_edge(kept, n)
            if n in self.active:
                self.degree[n] -= 1
        self.adj[gone] = set()


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

def simplify_scan(graph, optimistic, result) -> None:
    """The original rescan-per-batch simplify engine.

    Drop-in for ``repro.regalloc.simplify._simplify_indexed``.
    """
    while graph.active:
        low = [n for n in graph.active_nodes() if not graph.significant(n)]
        if low:
            # Remove all currently-low-degree nodes in a deterministic
            # order; removing one can only lower other degrees, so batch
            # removal stays valid.
            for node in sorted(low, key=_tie_break):
                if graph.is_active(node) and not graph.significant(node):
                    graph.remove(node)
                    result.stack.append(node)
            continue
        with phase("spill_pick"):
            candidate = choose_spill_candidate(graph, graph.active_nodes())
        graph.remove(candidate)
        if optimistic:
            result.stack.append(candidate)
            result.optimistic.add(candidate)
        else:
            result.spilled.add(candidate)


def free_mask_reference(selector: PreferenceSelector, node: int) -> int:
    """Colors no colored or physical neighbor of id ``node`` holds, from
    the assignment and the adjacency alone."""
    graph = selector.graph
    color_bit = {c: 1 << i for i, c in enumerate(graph.colors)}
    taken = 0
    for n in graph.all_neighbors(graph.nodes[node]):
        color = n if isinstance(n, PReg) else selector.assignment.get(n)
        if color is not None:
            taken |= color_bit.get(color, 0)
    return (1 << len(graph.colors)) - 1 & ~taken


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


def choose_node_scan(selector: PreferenceSelector, queue) -> int:
    """Linear scan of the ready set for the largest pick key, every
    differential recomputed by :func:`differential_reference` (the
    selector's free-mask, ask and differential caches are not read, so
    a stale one shows up as a different pick)."""
    spill_cost = selector.costs.spill_cost
    best = None
    best_key = None
    for node in queue:
        differential = differential_reference(selector, node)
        reg = selector.graph.nodes[node]
        key = (differential, spill_cost(reg), -reg.id)
        if best_key is None or key > best_key:
            best, best_key = node, key
    assert best is not None
    return best


class ScanPreferenceSelector(PreferenceSelector):
    """The selector picking by :func:`choose_node_scan`."""

    def _next_node(self) -> int:
        node = choose_node_scan(self, set(self._ready._members))
        self._ready.discard(node)
        return node


class CheckedPreferenceSelector(PreferenceSelector):
    """The production selector, every pick checked against the scan."""

    def _next_node(self) -> int:
        queue = set(self._ready._members)
        node = super()._next_node()
        oracle = choose_node_scan(self, queue)
        if node != oracle:
            nodes = self.graph.nodes
            raise OracleMismatch(
                f"select-index validation failed: ready heap picked "
                f"{nodes[node]}, scan oracle {nodes[oracle]}"
            )
        return node


class CheckedDegreeWorklist(DegreeWorklist):
    """The production worklist, every batch and spill pick checked
    against a rescan of the graph's active nodes."""

    def take_batch(self):
        batch = super().take_batch()
        graph = self.graph
        oracle = sorted(
            (n for n in graph.active_nodes() if not graph.significant(n)),
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
            metric = graph.spill_cost(node) / max(graph.degree(node), 1)
            return metric, self.tie_break(node)

        oracle = (min(graph.active_nodes(), key=score) if graph.active
                  else None)
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
    an allocation run against the references as it happens.

    The CPG reference runs on the reference interference graph of the
    function whose production graph the coloring graph was built from.
    """
    real_liveness = regalloc_base.compute_liveness
    real_interference = regalloc_base.build_interference
    real_cpg = core_allocator.build_cpg
    #: id of an interference graph's register list -> (its register
    #: index, the reference adjacency of its function)
    references: dict = {}

    def wig_adjacency(graph) -> dict:
        """The reference adjacency of the function ``graph`` was built
        from.  A graph that ``add_edge``/``merge`` changed no longer
        matches that function (and its nodes list is a copy extending
        the index's): its adjacency is read off its own rows, which
        ``SetAllocGraph`` checks separately."""
        hit = references.get(id(graph.nodes))
        if hit is not None and hit[0].regs is graph.nodes:
            return hit[1]
        if not graph.shared and any(
                len(graph.nodes) >= len(index.regs)
                and all(a is b for a, b in zip(graph.nodes, index.regs))
                for index, _ in references.values()):
            nodes = graph.nodes
            return {node: {nodes[j] for j in range(len(nodes))
                           if graph.rows[i] >> j & 1}
                    for i, node in enumerate(nodes)}
        raise OracleMismatch(
            "CPG oracle: no reference interference graph was recorded "
            "for this coloring graph (build its interference graph "
            "inside validate_dataflow)")

    def liveness(func, cfg=None):
        got = real_liveness(func, cfg)
        problems = compare_liveness(
            got, compute_liveness_reference(func, cfg))
        if problems:
            raise OracleMismatch("liveness oracle: " + "; ".join(problems))
        return got

    def interference(func, cfg=None, liveness=None):
        got = real_interference(func, cfg, liveness)
        want = build_interference_reference(func, cfg)
        problems = compare_interference(got, want)
        if problems:
            raise OracleMismatch(
                "interference oracle: " + "; ".join(problems))
        references[id(got.index.regs)] = (got.index, want.adjacency)
        return got

    def cpg(graph, wig, simplification):
        got = real_cpg(graph, wig, simplification)
        adjacency = wig_adjacency(graph)
        wig_nodes = [node for i, node in enumerate(graph.nodes)
                     if wig >> i & 1]
        want = build_cpg_reference(adjacency, graph.k, wig_nodes,
                                   simplification)
        problems = compare_cpgs(got, want)
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
        fresh = regalloc_base.compute_round_analyses(func)
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
            lambda self, func: regalloc_base.compute_round_analyses(func)):
        yield


def rename_onto(retained, fresh) -> dict:
    """Retained vreg -> fresh vreg, pairing the operands of two
    references position by position; raise :class:`OracleMismatch`
    unless ``fresh`` is ``retained`` with its vregs renamed one to one.

    Walks ``uses()``/``defs()`` rather than the dataclass fields the
    session's own check walks; constants are left to the byte
    comparison of the allocated code.
    """
    def shape(func):
        return [(blk.label, len(blk.instrs)) for blk in func.blocks]

    if shape(retained) != shape(fresh):
        raise OracleMismatch(f"retained reference of {retained.name!r} "
                             f"has other blocks than the scratch one")
    rename: dict = {}

    def pair(olds, news, where) -> None:
        if len(olds) != len(news):
            raise OracleMismatch(f"operand count differs at {where}")
        for old, new in zip(olds, news):
            if isinstance(old, VReg) and isinstance(new, VReg):
                if rename.setdefault(old, new) != new:
                    raise OracleMismatch(f"{old} renames two ways at "
                                         f"{where}")
            elif old != new:
                raise OracleMismatch(f"{old} vs {new} at {where}")

    pair(retained.params, fresh.params, "params")
    for old_blk, new_blk in zip(retained.blocks, fresh.blocks):
        for i, (old, new) in enumerate(zip(old_blk.instrs, new_blk.instrs)):
            where = f"{old_blk.label}:{i}"
            if type(old) is not type(new):
                raise OracleMismatch(f"instruction class differs at "
                                     f"{where}")
            pair(old.uses(), new.uses(), where)
            pair(old.defs(), new.defs(), where)
    if len(set(rename.values())) != len(rename):
        raise OracleMismatch("retained vregs merge under the renaming")
    return rename


def renamed_analyses(got, rename: dict):
    """``got`` (a :class:`RoundAnalyses`) with every register passed
    through ``rename``, in the shape :func:`compare_analyses` reads.

    The mask fields carry over as they are: the register index numbers
    registers in first-encounter order, which a positional renaming
    keeps (the index itself is compared register by register).
    """
    def reg(r):
        return rename.get(r, r)

    def sets(table):
        return {label: {reg(r) for r in regs}
                for label, regs in table.items()}

    liv = got.liveness
    index = SimpleNamespace(regs=[reg(r) for r in liv.index.regs])
    liveness = SimpleNamespace(
        index=index,
        live_in_mask=liv.live_in_mask, live_out_mask=liv.live_out_mask,
        use_mask=liv.use_mask, defs_mask=liv.defs_mask,
        live_in=sets(liv.live_in), live_out=sets(liv.live_out),
        use=sets(liv.use), defs=sets(liv.defs),
    )
    ig = SimpleNamespace(
        adjacency={reg(node): {reg(r) for r in row}
                   for node, row in got.ig.adjacency.items()},
        moves=[SimpleNamespace(dst=reg(m.dst), src=reg(m.src))
               for m in got.ig.moves],
    )
    costs = {reg(v): cost for v, cost in got.spill_costs.items()}
    return SimpleNamespace(liveness=liveness, ig=ig, spill_costs=costs)


def check_session_against_scratch(session, parsed, machine, allocator,
                                  options, result, cycles, code) -> None:
    """Recompute ``parsed`` from scratch; raise on any divergence from
    an incremental allocation's analyses, code, stats or cycles.

    The session's reference may be an earlier version's that the
    scratch reference renames (the ``rename`` rung), so its analyses
    are compared through that renaming; code, stats and cycles are
    compared byte for byte, and the retained rendering ``code`` must
    be both ``print_function(result.func)`` and the scratch code."""
    from repro.analysis.renumber import renumber
    from repro.pipeline import prepare_function
    from repro.regalloc.base import allocate_function, compute_round_analyses
    from repro.regalloc.verify import verify_allocation
    from repro.service.protocol import cycles_to_dict, stats_to_dict
    from repro.sim.cycles import estimate_cycles

    prepared = prepare_function(clone_function(parsed), machine)
    ref = clone_function(prepared)
    renumber(ref)
    fresh = compute_round_analyses(ref)
    got = renamed_analyses(session.analyses,
                           rename_onto(session.ref, ref))
    problems = compare_analyses(got, fresh)
    if got.liveness.index.regs != fresh.liveness.index.regs:
        problems.append("register index differs")
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
    want = print_function(func)
    if print_function(result.func) != want:
        raise OracleMismatch(f"incremental edit allocation diverged from "
                             f"scratch for {session.name!r}")
    if code != want:
        raise OracleMismatch(f"incremental edit rendering diverged from "
                             f"its code for {session.name!r}")
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
                                      out.cycles, out.code)
    return out


def scratch_incremental(session, func, machine, allocator, options):
    """The from-scratch rung for every version (the session oracle)."""
    from repro.service.session import allocate_function_incremental

    return allocate_function_incremental(None, func, machine, allocator,
                                         options)


# ----------------------------------------------------------------------
# IR text: one regular expression per instruction form


_REF_FUNC_RE = re.compile(r"^func\s+(\w+)\(([^)]*)\)(\s*->\s*value)?\s*\{$")
_REF_LABEL_RE = re.compile(r"^([\w.]+):(\s*;.*)?$")
_REF_VREG_FLOAT_RE = re.compile(r"^%f\d+$")
_REF_PREG_RE = re.compile(r"^\$(fr|r)(\d+)$")
_REF_LOAD_RE = re.compile(r"^load(\.b)?\s*\[(\S+?)\+(-?\d+)\]$")
_REF_STORE_RE = re.compile(r"^store\s*\[(\S+?)\+(-?\d+)\]\s*=\s*(\S+)$")
_REF_CALL_PRE_RE = re.compile(r"^call\s+(\w+)\((.*)\)$")
_REF_CALL_POST_RE = re.compile(r"^call\s+(\w+)\s*\[(.*)\]$")
_REF_PHI_RE = re.compile(r"^phi\s*\[(.*)\]$")
_REF_RELOAD_RE = re.compile(r"^reload\s+slot(\d+)$")
_REF_SPILL_RE = re.compile(r"^spill\s+slot(\d+)\s*=\s*(\S+)$")
_REF_BINOPS = set(INT_BINOPS) | set(FLOAT_BINOPS) | set(COMPARE_OPS)
_REF_UNOPS = set(UNARY_OPS)


class _ReferenceParser:
    """Each line tried against the forms' regexes in a fixed order."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0
        self.func = None
        self.regs: dict = {}

    def next_meaningful(self):
        while self.pos < len(self.lines):
            lineno = self.pos + 1
            raw = self.lines[self.pos]
            self.pos += 1
            stripped = raw.split(";", 1)[0].strip()
            if stripped:
                return lineno, stripped
        return None

    def parse_function(self) -> Function:
        item = self.next_meaningful()
        if item is None:
            raise ParseError("expected function header, found end of input")
        lineno, line = item
        m = _REF_FUNC_RE.match(line)
        if not m:
            raise ParseError(f"bad function header: {line!r}", lineno)
        name, params_text, returns = m.group(1), m.group(2), m.group(3)
        self.func = Function(name, returns_value=bool(returns))
        self.regs = {}
        for token in filter(None, (t.strip() for t in params_text.split(","))):
            reg = self._reg(token, lineno)
            if not isinstance(reg, VReg):
                raise ParseError(f"parameter must be virtual: {token}", lineno)
            self.func.params.append(reg)
        block = None
        while True:
            item = self.next_meaningful()
            if item is None:
                raise ParseError("unterminated function (missing '}')")
            lineno, line = item
            if line == "}":
                break
            label = _REF_LABEL_RE.match(line)
            if label:
                block = BasicBlock(label.group(1))
                self.func.blocks.append(block)
                continue
            if block is None:
                raise ParseError(f"instruction before any label: {line!r}",
                                 lineno)
            block.instrs.append(self._instr(line, lineno))
        return self.func

    def _reg(self, token: str, lineno: int):
        token = token.strip()
        if token.startswith("%"):
            if token in self.regs:
                return self.regs[token]
            rclass = (RegClass.FLOAT if _REF_VREG_FLOAT_RE.match(token)
                      else RegClass.INT)
            reg = self.func.new_vreg(rclass, name=token[1:])
            self.regs[token] = reg
            return reg
        m = _REF_PREG_RE.match(token)
        if m:
            rclass = RegClass.FLOAT if m.group(1) == "fr" else RegClass.INT
            return PReg(int(m.group(2)), rclass)
        raise ParseError(f"bad register token {token!r}", lineno)

    def _value(self, token: str, lineno: int, rclass=RegClass.INT):
        token = token.strip()
        if token.startswith(("%", "$")):
            return self._reg(token, lineno)
        try:
            if "." in token or "e" in token.lower():
                return Const(float(token), RegClass.FLOAT)
            return Const(int(token), rclass)
        except ValueError:
            raise ParseError(f"bad value token {token!r}", lineno) from None

    def _instr(self, line: str, lineno: int):
        m = _REF_STORE_RE.match(line)
        if m:
            return Store(self._value(m.group(1), lineno), int(m.group(2)),
                         self._value(m.group(3), lineno))
        m = _REF_SPILL_RE.match(line)
        if m:
            return SpillStore(int(m.group(1)), self._value(m.group(2), lineno))
        m = _REF_CALL_POST_RE.match(line)
        if m:
            uses = [self._reg(t, lineno)
                    for t in filter(None, (x.strip()
                                           for x in m.group(2).split(",")))]
            for u in uses:
                if not isinstance(u, PReg):
                    raise ParseError("lowered call uses must be physical",
                                     lineno)
            return Call(m.group(1), reg_uses=uses)
        if line.startswith("jump "):
            return Jump(line[5:].strip())
        if line.startswith("branch "):
            parts = [p.strip() for p in line[7:].split(",")]
            if len(parts) != 3:
                raise ParseError(f"bad branch: {line!r}", lineno)
            return Branch(self._value(parts[0], lineno), parts[1], parts[2])
        if line == "ret":
            return Ret()
        if line.startswith("ret ["):
            inner = line[len("ret ["):-1]
            uses = [self._reg(t, lineno)
                    for t in filter(None, (x.strip() for x in inner.split(",")))]
            return Ret(None, reg_uses=[u for u in uses if isinstance(u, PReg)])
        if line.startswith("ret "):
            return Ret(self._value(line[4:], lineno))
        if line.startswith("call "):
            return self._call_pre(line, lineno, dst=None)
        if "=" not in line:
            raise ParseError(f"unrecognized instruction {line!r}", lineno)
        dst_text, rhs = (s.strip() for s in line.split("=", 1))
        dst = self._reg(dst_text, lineno)
        return self._assign(dst, rhs, lineno)

    def _call_pre(self, rhs: str, lineno: int, dst):
        m = _REF_CALL_PRE_RE.match(rhs)
        if not m:
            raise ParseError(f"bad call {rhs!r}", lineno)
        args = [self._value(t, lineno)
                for t in filter(None, (x.strip()
                                       for x in m.group(2).split(",")))]
        return Call(m.group(1), args, dst)

    def _assign(self, dst, rhs: str, lineno: int):
        m = _REF_LOAD_RE.match(rhs)
        if m:
            width = "byte" if m.group(1) else "word"
            return Load(dst, self._value(m.group(2), lineno),
                        int(m.group(3)), width)
        m = _REF_RELOAD_RE.match(rhs)
        if m:
            return SpillLoad(dst, int(m.group(1)))
        m = _REF_PHI_RE.match(rhs)
        if m:
            incoming = {}
            for part in filter(None, (x.strip() for x in m.group(1).split(","))):
                if ":" not in part:
                    raise ParseError(f"bad phi arm {part!r}", lineno)
                label, val = (s.strip() for s in part.split(":", 1))
                incoming[label] = self._value(val, lineno, dst.rclass)
            return Phi(dst, incoming)
        if rhs.startswith("call "):
            return self._call_pre(rhs, lineno, dst)
        op, *rest = rhs.split(None, 1) or [""]
        if op in _REF_BINOPS:
            operands = [t.strip() for t in rest[0].split(",")] if rest else []
            if len(operands) != 2:
                raise ParseError(f"binop needs two operands: {rhs!r}", lineno)
            return BinOp(op, dst,
                         self._value(operands[0], lineno, dst.rclass),
                         self._value(operands[1], lineno, dst.rclass))
        if op in _REF_UNOPS:
            if not rest:
                raise ParseError(f"{op} needs an operand: {rhs!r}", lineno)
            return UnaryOp(op, dst, self._value(rest[0], lineno, dst.rclass))
        value = self._value(rhs, lineno, dst.rclass)
        if isinstance(value, Const):
            return ConstInst(dst, value.value)
        return Move(dst, value)


def parse_module_reference(text: str, name: str = "module") -> Module:
    """The reference reading of ``text`` as a module."""
    parser = _ReferenceParser(text)
    module = Module(name)
    while True:
        save = parser.pos
        if parser.next_meaningful() is None:
            break
        parser.pos = save
        module.add(parser.parse_function())
    return module


def _operand_shape(value):
    if isinstance(value, VReg):
        return ("v", value.id, value.rclass, value.name, value.no_spill)
    if isinstance(value, PReg):
        return ("p", value.index, value.rclass, value.name)
    if isinstance(value, Const):
        return ("c", type(value.value), value.value, value.rclass)
    return value


def parsed_shape(module: Module) -> list:
    """Everything a parse decides, in a form two parses compare by.

    Per function: the printed text, ``next_vreg_id``, the parameters and
    every instruction's class and fields, with each register's id, class
    and name and each constant's type and class.
    """
    out = []
    for func in module.functions:
        instrs = []
        for blk in func.blocks:
            for instr in blk.instrs:
                fields = []
                for slot in type(instr).__slots__:
                    value = getattr(instr, slot)
                    if isinstance(value, list):
                        value = [_operand_shape(v) for v in value]
                    elif isinstance(value, dict):
                        value = [(k, _operand_shape(v))
                                 for k, v in value.items()]
                    else:
                        value = _operand_shape(value)
                    fields.append((slot, value))
                instrs.append((blk.label, type(instr).__name__, fields))
        out.append((print_function(func), func.next_vreg_id,
                    [_operand_shape(p) for p in func.params], instrs))
    return out
