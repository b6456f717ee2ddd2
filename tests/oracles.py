"""Correctness oracles for the production allocator paths.

Every hot step of the allocator has exactly one production
implementation.  This module holds the independent references the
tests compare production against directly:

* **dataflow** — the set-based liveness and interference builders,
  written straight from the definitions (closest to the paper), and
  the scalar int-row CPG replay;
* **simplify/select** — the rescan-per-batch simplify engine and the
  linear ready-queue scan of the preference selector;
* **spill rounds and edits** — the from-scratch re-analysis, compared
  phase by phase with :func:`compare_analyses`, and the from-scratch
  allocation of an edited function (:func:`check_session_against_scratch`);
* **dispatch wire** — the shipped function itself
  (:func:`check_wire_jobs`).

Besides the plain oracle functions, context managers install each
reference into a real allocation run:

* ``validate_*`` keep production running and compare each of its
  decisions or results with the oracle as it happens, raising
  :class:`OracleMismatch` on the first divergence;
* ``scan_select`` and ``scratch_rounds`` replace the production
  engine with the oracle, for whole-run identity comparisons;
* ``forced_matrix_branches`` runs the vectorized kernel size class on
  every function, however small.
"""

from __future__ import annotations

import importlib
import pickle
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.analysis.indexing import iter_bits
from repro.analysis.liveness import Liveness
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


def choose_node_scan(selector: PreferenceSelector, queue) -> VReg:
    """Linear scan of the ready set for the largest pick key."""
    diff_cache = selector._diff_cache
    spill_cost = selector.costs.spill_cost
    weights = selector._key_weights
    best = None
    best_key = None
    for node in queue:
        differential = diff_cache.get(node)
        if differential is None:
            differential = diff_cache[node] = selector._differential(node)
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
def forced_matrix_branches():
    """Drop both kernel size thresholds so the vectorized branches
    engage on every function, however small."""
    from repro.analysis import matrix
    from repro.core import cpg

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(matrix, "MATRIX_MIN_CELLS", 0))
        stack.enter_context(mock.patch.object(cpg, "MATRIX_MIN_NODES", 0))
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

    def interference(func, cfg=None, liveness=None,
                     collect_block_rows=False):
        got = real_interference(func, cfg, liveness, collect_block_rows)
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


def compare_analyses(patched, fresh) -> list[str]:
    """Differences between a patched and a from-scratch round analysis.

    Empty list means value-identical (including the node insertion
    order the allocators' tie-breaks depend on).  Each problem names
    the first divergent block/register.
    """
    problems: list[str] = []
    p_liv, f_liv = patched.liveness, fresh.liveness
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
    p_ig, f_ig = patched.ig, fresh.ig
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
    if patched.spill_costs != fresh.spill_costs:
        detail = ""
        for v in sorted(set(patched.spill_costs) | set(fresh.spill_costs),
                        key=str):
            if patched.spill_costs.get(v) != fresh.spill_costs.get(v):
                detail = (f" at {v} ({patched.spill_costs.get(v)} vs "
                          f"{fresh.spill_costs.get(v)})")
                break
        problems.append(f"spill costs differ{detail}")
    if fresh.block_rows is not None and patched.block_rows != fresh.block_rows:
        detail = next(
            (f" at block {lbl!r}" for lbl in fresh.block_rows
             if patched.block_rows.get(lbl) != fresh.block_rows[lbl]),
            "",
        )
        problems.append(f"per-block interference rows differ{detail}")
    if (fresh.block_costs is not None
            and patched.block_costs != fresh.block_costs):
        detail = next(
            (f" at block {lbl!r}" for lbl in fresh.block_costs
             if patched.block_costs.get(lbl) != fresh.block_costs[lbl]),
            "",
        )
        problems.append(f"per-block cost tables differ{detail}")
    return problems


@contextmanager
def validate_rounds():
    """Recompute every patched spill round from scratch and raise on
    the first divergence from the patch."""
    real = regalloc_base.RoundAnalyses.apply_delta

    def checked(self, func, delta, renumbering):
        patched = real(self, func, delta, renumbering)
        if patched is not None:
            fresh = regalloc_base.compute_round_analyses(
                func, collect_deltas=True, policy=self.policy)
            problems = compare_analyses(patched, fresh)
            if problems:
                raise OracleMismatch(
                    "incremental round analyses diverged: "
                    + "; ".join(problems))
        return patched

    with mock.patch.object(regalloc_base.RoundAnalyses, "apply_delta",
                           checked):
        yield


@contextmanager
def scratch_rounds():
    """Re-analyze every spill round from scratch (the patch oracle)."""
    with mock.patch.object(regalloc_base.RoundAnalyses, "apply_delta",
                           lambda self, func, delta, renumbering: None):
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
    fresh = compute_round_analyses(ref, collect_deltas=True,
                                   policy=options.policy)
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
        decoded = wire.resolve_job(job)[0]
        shipped = pickle.loads(pickle.dumps(payload[0],
                                            pickle.HIGHEST_PROTOCOL))
        if print_function(decoded) != print_function(shipped):
            raise OracleMismatch(
                f"wire: decoded function {decoded.name!r} diverges from "
                f"the shipped function {shipped.name!r}")
