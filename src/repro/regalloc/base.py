"""Allocator framework: round context, driver loop, stats, rewriting.

Every allocator variant (Chaitin, Briggs, iterated, optimistic,
call-cost, preference-directed) implements one *round*: given the current
function's interference structure, produce either a complete coloring or
a set of live ranges to spill.  The shared :func:`allocate_function`
driver runs rounds to a fixed point — renumber, analyze, color, and on
spills insert spill code and rebuild, exactly the loop of the paper's
Figures 1–3 and 8 — then rewrites the function onto physical registers.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass, field, replace

from repro.analysis.incremental import apply_function_delta, apply_spill_delta
from repro.analysis.interference import InterferenceGraph, build_interference
from repro.analysis.liveness import Liveness, compute_liveness
from repro.analysis.renumber import RenumberResult, renumber
from repro.cfg.analysis import CFG, build_cfg
from repro.cfg.loops import LoopInfo, compute_loops
from repro.errors import AllocationError
from repro.ir.function import Function
from repro.ir.instructions import Move, SpillLoad, SpillStore
from repro.ir.values import PReg, RegClass, Register, VReg
from repro.policy import DEFAULT_POLICY, Policy
from repro.profiling import phase
from repro.regalloc.costs import (
    compute_spill_costs,
    compute_spill_costs_by_block,
)
from repro.regalloc.igraph import AllocGraph, build_alloc_graph
from repro.regalloc.spill import SpillDelta, insert_spill_code
from repro.target.machine import TargetMachine

__all__ = [
    "AllocationOptions",
    "RoundContext",
    "RoundOutcome",
    "RoundAnalyses",
    "Allocator",
    "AllocationStats",
    "AllocationResult",
    "allocate_function",
    "compute_round_analyses",
]

@dataclass(frozen=True)
class AllocationOptions:
    """Every knob that shapes one allocation, in one immutable value.

    This is the single options surface of the public API: the driver
    (:func:`allocate_function`), the module fan-out
    (:func:`repro.pipeline.allocate_module`), the service scheduler, and
    the wire protocol all accept ``options=`` instead of the historical
    mix of keywords and environment variables.  The legacy keywords
    were removed in this API generation and now raise :class:`TypeError`
    with a migration hint.

    Fields that change *results* (``max_rounds``, ``rematerialize``,
    ``verify``, ``policy``) are part of the service cache fingerprint;
    the rest (``jobs``, ``reuse_analyses``, ``deadline_ms``) are
    result-neutral execution policy — any combination of them yields
    byte-identical allocations.  No field picks an implementation
    strategy: spill rounds and edits are always patched incrementally.
    A default ``policy`` is byte-identical to the historical constants and is
    *omitted* from both the wire form and the fingerprint, so existing
    traffic keeps its fingerprints (see :mod:`repro.policy`).

    ``deadline_ms`` is the per-function hard deadline enforced by the
    :mod:`repro.exec` worker pool: a worker running past it is killed
    and the job retried; exhausted retries surface as
    :class:`repro.exec.JobDeadlineError` so the service can degrade
    along its allocator ladder instead of stalling the queue.
    """

    max_rounds: int = 64
    rematerialize: bool = False
    verify: bool = True
    jobs: int = 1
    reuse_analyses: bool = True
    deadline_ms: float | None = None
    #: service disk-cache directory (None = ~/.cache/repro); carried
    #: here so ``$REPRO_CACHE_DIR`` has exactly one reader, but not
    #: serialized onto the wire (it is server-local policy).
    cache_dir: str | None = None
    #: heuristic decision points (cost constants, spill scoring,
    #: selector key, degradation ladder) — see :mod:`repro.policy`.
    policy: Policy = DEFAULT_POLICY

    def __post_init__(self) -> None:
        if not isinstance(self.policy, Policy):
            raise ValueError(
                f"policy must be a repro.policy.Policy, "
                f"got {type(self.policy).__name__}"
            )
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.deadline_ms is not None:
            if not isinstance(self.deadline_ms, (int, float)) or isinstance(
                self.deadline_ms, bool
            ):
                raise ValueError("deadline_ms must be a number or None")
            if self.deadline_ms < 0:
                raise ValueError("deadline_ms must be >= 0")

    @classmethod
    def from_env(cls, environ=None, **overrides) -> "AllocationOptions":
        """Defaults with the one documented environment variable folded
        in: ``REPRO_CACHE_DIR`` -> ``cache_dir``.  Explicit
        ``overrides`` win.  This is the *only* place the library reads
        the environment.
        """
        env = os.environ if environ is None else environ
        values = {"cache_dir": env.get("REPRO_CACHE_DIR") or None}
        values.update(overrides)
        return cls(**values)

    def replace(self, **changes) -> "AllocationOptions":
        return replace(self, **changes)

    #: fields serialized onto the service wire (cache_dir is local;
    #: a *default* policy is omitted so pre-policy clients and servers
    #: interoperate unchanged).
    WIRE_FIELDS = ("max_rounds", "rematerialize", "verify", "jobs",
                   "reuse_analyses", "deadline_ms", "policy")
    #: retired strategy fields older clients still send; accepted and
    #: ignored (every strategy now has one production path)
    RETIRED_WIRE_FIELDS = ("incremental", "incremental_edits")

    def to_dict(self) -> dict:
        """JSON-safe wire form (``deadline_ms: None`` and the default
        ``policy`` are omitted)."""
        wire = {name: getattr(self, name) for name in self.WIRE_FIELDS}
        if wire["deadline_ms"] is None:
            del wire["deadline_ms"]
        if self.policy.is_default():
            del wire["policy"]
        else:
            wire["policy"] = self.policy.to_dict()
        return wire

    @classmethod
    def from_dict(cls, wire: dict) -> "AllocationOptions":
        if not isinstance(wire, dict):
            raise ValueError(f"options must be an object, got {wire!r}")
        unknown = (set(wire) - set(cls.WIRE_FIELDS)
                   - set(cls.RETIRED_WIRE_FIELDS))
        if unknown:
            raise ValueError(f"unknown option field(s) {sorted(unknown)}")
        values = {name: value for name, value in wire.items()
                  if name in cls.WIRE_FIELDS}
        if "policy" in values:
            values["policy"] = Policy.from_dict(values["policy"])
        return cls(**values)


def _resolve_options(options: AllocationOptions | None,
                     **legacy) -> AllocationOptions:
    """Reject removed legacy keywords; resolve ``None`` to env defaults.

    The pre-``AllocationOptions`` keywords went through a
    :class:`DeprecationWarning` cycle and are now hard errors with a
    migration hint (the keyword parameters are retained in the public
    signatures so callers get this message rather than an opaque
    ``unexpected keyword argument``).
    """
    supplied = {k: v for k, v in legacy.items() if v is not None}
    if supplied:
        hint = ", ".join(f"{k}=..." for k in sorted(supplied))
        raise TypeError(
            f"the legacy keyword(s) {sorted(supplied)} were removed; "
            f"pass options=AllocationOptions({hint}) instead"
        )
    if options is None:
        options = AllocationOptions.from_env()
    return options


@dataclass(eq=False)
class RoundContext:
    """Everything an allocator may consult during one round."""

    func: Function
    machine: TargetMachine
    cfg: CFG
    loops: LoopInfo
    liveness: Liveness
    ig: InterferenceGraph
    spill_costs: dict[VReg, float]
    round_index: int
    #: heuristic knobs for this allocation (defaults are byte-identical
    #: to the historical constants) — allocators read cost constants,
    #: spill scoring, and selector weights from here.
    policy: Policy = DEFAULT_POLICY

    def graph(self, rclass: RegClass) -> AllocGraph:
        """A fresh per-class coloring graph for this round."""
        return build_alloc_graph(self.ig, self.machine, rclass,
                                 self.spill_costs)

    def classes(self) -> list[RegClass]:
        """Register classes that actually occur in the function."""
        present = {v.rclass for v in self.ig.vregs()}
        return [rc for rc in (RegClass.INT, RegClass.FLOAT) if rc in present]


@dataclass(eq=False)
class RoundOutcome:
    """What one allocator round decided."""

    #: representative vreg -> color (per-class results merged)
    assignment: dict[VReg, PReg] = field(default_factory=dict)
    #: coalesce alias map: merged vreg -> survivor
    alias: dict[VReg, Register] = field(default_factory=dict)
    #: live ranges that must be spilled (empty means the round succeeded)
    spilled: set[VReg] = field(default_factory=set)
    coalesced_count: int = 0
    biased_hits: int = 0

    def resolve(self, reg: VReg) -> PReg:
        """Final color of any vreg through the alias chain."""
        node: Register = reg
        seen = 0
        while isinstance(node, VReg) and node in self.alias:
            node = self.alias[node]
            seen += 1
            if seen > len(self.alias) + 1:
                raise AllocationError("alias cycle")
        if isinstance(node, PReg):
            return node
        try:
            return self.assignment[node]
        except KeyError:
            raise AllocationError(f"no color for {reg} (rep {node})") from None


@dataclass(eq=False)
class RoundAnalyses:
    """The per-round analyses of a renumbered function, cacheable.

    Renumbering is deterministic, so the round-0 analyses of any clone of
    a prepared function are value-identical: the CFG and loop nest are
    register-free, and liveness, interference adjacency, and spill costs
    are keyed by (immutable, value-hashed) registers.  The one exception
    is the interference graph's *move list*, which holds the analyzed
    clone's instruction objects; :meth:`ig_for` substitutes the consuming
    clone's own ``Move`` instructions (consumers key frequency/liveness
    tables by ``id(instr)``).
    """

    cfg: CFG
    loops: LoopInfo
    liveness: Liveness
    ig: InterferenceGraph
    spill_costs: dict[VReg, float]
    #: per-block one-sided interference rows / cost contributions, kept
    #: so the next spill round can patch instead of rebuild (None when
    #: computed without collection)
    block_rows: dict[str, dict[int, int]] | None = None
    block_costs: dict[str, dict[VReg, float]] | None = None
    #: the policy the spill costs were computed under; cached analyses
    #: are only valid for requests carrying the same policy, and the
    #: incremental patchers recompute touched-block costs with it.
    policy: Policy = DEFAULT_POLICY

    def apply_delta(
        self,
        func: Function,
        delta: SpillDelta,
        renumbering: RenumberResult,
    ) -> "RoundAnalyses | None":
        """These analyses patched through one spill round of ``func``.

        ``func`` must already be spill-rewritten and renumbered.  The
        CFG and loop nest are reused outright (spill code is
        branch-free); liveness, interference, and spill costs are
        patched from the touched blocks.  Returns ``None`` when a
        patch precondition fails — the caller falls back to
        :func:`compute_round_analyses`.
        """
        patched = apply_spill_delta(func, self, delta, renumbering)
        if patched is None:
            return None
        return RoundAnalyses(
            cfg=self.cfg, loops=self.loops, liveness=patched.liveness,
            ig=patched.ig, spill_costs=patched.spill_costs,
            block_rows=patched.block_rows, block_costs=patched.block_costs,
            policy=self.policy,
        )

    def apply_edit_delta(self, func: Function,
                         fdelta) -> "RoundAnalyses | None":
        """These analyses patched through a source-edit delta.

        ``func`` is the new version of the analyzed function, already
        prepared and renumbered; ``fdelta`` a renumbered-mode
        :class:`~repro.ir.diff.FunctionDelta` of the analyzed function
        against ``func``.  The CFG and loop nest carry over unless the
        edit changed the edge set, in which case the patcher rebuilt
        them.  Returns ``None`` when a patch precondition fails or the
        delta touches too much of the function — the caller falls back
        to :func:`compute_round_analyses`.
        """
        patched = apply_function_delta(func, self, fdelta)
        if patched is None:
            return None
        return RoundAnalyses(
            cfg=patched.cfg if patched.cfg is not None else self.cfg,
            loops=patched.loops if patched.loops is not None else self.loops,
            liveness=patched.liveness, ig=patched.ig,
            spill_costs=patched.spill_costs,
            block_rows=patched.block_rows, block_costs=patched.block_costs,
            policy=self.policy,
        )

    def ig_for(self, func: Function) -> InterferenceGraph | None:
        """The cached graph rebased onto ``func``'s own move instructions.

        Returns None when ``func``'s moves do not match the analyzed
        clone's (deterministic renumbering makes that unreachable, but a
        None return lets the caller fall back to a fresh analysis rather
        than silently misattribute move costs).
        """
        moves = [
            instr
            for blk in func.blocks
            for instr in reversed(blk.instrs)
            if isinstance(instr, Move)
        ]
        ref = self.ig.moves
        if len(moves) != len(ref) or any(
            a.dst != b.dst or a.src != b.src for a, b in zip(moves, ref)
        ):
            return None
        # The backing store is shared (read-only to every allocator) in
        # whichever form the cached graph has — bitmask rows when the
        # adjacency was never materialized, the dict otherwise; the
        # fresh instance keeps per-use caches (nodes_by_class) local.
        ig = self.ig
        if ig.materialized:
            return InterferenceGraph(adjacency=ig.adjacency, moves=moves)
        return InterferenceGraph(moves=moves, index=ig.index, rows=ig.rows)


def compute_round_analyses(
    func: Function, collect_deltas: bool = False,
    policy: Policy = DEFAULT_POLICY,
) -> RoundAnalyses:
    """Analyze one (already renumbered) function for an allocation round.

    ``collect_deltas=True`` additionally retains the per-block summaries
    (interference rows, cost contributions) that let a later spill round
    patch these analyses via :meth:`RoundAnalyses.apply_delta`.
    ``policy`` parameterizes the spill-cost weighting; the default is
    byte-identical to the historical constants.
    """
    with phase("cfg"):
        cfg = build_cfg(func)
        loops = compute_loops(cfg)
    with phase("liveness"):
        liveness = compute_liveness(func, cfg)
    with phase("interference"):
        ig = build_interference(func, cfg, liveness,
                                collect_block_rows=collect_deltas)
    with phase("spill-costs"):
        if collect_deltas:
            spill_costs, block_costs = compute_spill_costs_by_block(
                func, loops, cfg, policy
            )
        else:
            spill_costs = compute_spill_costs(func, loops, cfg, policy)
            block_costs = None
    return RoundAnalyses(cfg=cfg, loops=loops, liveness=liveness, ig=ig,
                         spill_costs=spill_costs, block_rows=ig.block_rows,
                         block_costs=block_costs, policy=policy)


class Allocator(abc.ABC):
    """Interface implemented by each allocation algorithm."""

    #: short name used in benchmark tables
    name: str = "abstract"

    @abc.abstractmethod
    def allocate_round(self, ctx: RoundContext) -> RoundOutcome:
        """Color the current function or nominate spills."""


@dataclass(eq=False)
class AllocationStats:
    """Counters the evaluation figures are built from."""

    allocator: str = ""
    rounds: int = 0
    #: move instructions present before allocation (static / weighted)
    moves_before: int = 0
    moves_before_weighted: float = 0.0
    #: moves whose ends got one register — deleted at rewrite
    moves_eliminated: int = 0
    moves_eliminated_weighted: float = 0.0
    #: spill instructions in the final code (static / weighted)
    spill_loads: int = 0
    spill_stores: int = 0
    spill_weighted: float = 0.0
    coalesced_count: int = 0
    biased_hits: int = 0
    spilled_webs: int = 0
    #: non-volatile registers the final code touches (callee-save cost)
    nonvolatile_used: dict[RegClass, int] = field(default_factory=dict)
    #: per-register-class splits (the paper reports mpegaudio/mtrt float
    #: results as separate "fp" rows)
    moves_before_class: dict[RegClass, int] = field(default_factory=dict)
    moves_eliminated_class: dict[RegClass, int] = field(default_factory=dict)
    spills_class: dict[RegClass, int] = field(default_factory=dict)

    def merge(self, other: "AllocationStats") -> None:
        """Accumulate another function's stats (module aggregation)."""
        self.rounds = max(self.rounds, other.rounds)
        self.moves_before += other.moves_before
        self.moves_before_weighted += other.moves_before_weighted
        self.moves_eliminated += other.moves_eliminated
        self.moves_eliminated_weighted += other.moves_eliminated_weighted
        self.spill_loads += other.spill_loads
        self.spill_stores += other.spill_stores
        self.spill_weighted += other.spill_weighted
        self.coalesced_count += other.coalesced_count
        self.biased_hits += other.biased_hits
        self.spilled_webs += other.spilled_webs
        for table, src in (
            (self.nonvolatile_used, other.nonvolatile_used),
            (self.moves_before_class, other.moves_before_class),
            (self.moves_eliminated_class, other.moves_eliminated_class),
            (self.spills_class, other.spills_class),
        ):
            for key, value in src.items():
                table[key] = table.get(key, 0) + value

    @property
    def spill_instructions(self) -> int:
        return self.spill_loads + self.spill_stores

    @property
    def moves_remaining(self) -> int:
        return self.moves_before - self.moves_eliminated


@dataclass(eq=False)
class AllocationResult:
    """Final allocation of one function."""

    func: Function
    machine: TargetMachine
    stats: AllocationStats
    #: final vreg -> preg mapping for the last round's names
    assignment: dict[VReg, PReg] = field(default_factory=dict)


def allocate_function(
    func: Function,
    machine: TargetMachine,
    allocator: Allocator,
    options: AllocationOptions | None = None,
    *,
    round0: RoundAnalyses | None = None,
    assume_renumbered: bool = False,
    max_rounds: int | None = None,
    rematerialize: bool | None = None,
) -> AllocationResult:
    """Run ``allocator`` on ``func`` to completion (in place).

    ``options`` carries every knob (see :class:`AllocationOptions`);
    when omitted it is built by :meth:`AllocationOptions.from_env`.  The
    bare ``max_rounds``/``rematerialize`` keywords were removed — passing
    them raises :class:`TypeError` with a migration hint.

    ``options.rematerialize`` re-emits single-constant spilled live
    ranges instead of storing/reloading them (Briggs-style
    rematerialization).

    ``round0`` supplies precomputed first-round analyses (from
    :func:`compute_round_analyses` on a renumbered clone of the same
    prepared function).  Spill rounds patch the previous round's
    analyses through the spill delta when possible
    (:meth:`RoundAnalyses.apply_delta`), falling back to a from-scratch
    re-analysis only when a patch precondition fails.

    ``assume_renumbered=True`` skips the round-0 renumber: the caller
    vouches that ``func`` is already in renumbered form (a clone of —
    or value-identical to — the function ``round0`` analyzed).  The
    session layer uses this to keep a patched clone's names aligned
    with its retained analyses; spill rounds still renumber normally.
    """
    options = _resolve_options(
        options, max_rounds=max_rounds, rematerialize=rematerialize
    )
    max_rounds = options.max_rounds
    rematerialize = options.rematerialize
    policy = options.policy
    stats = AllocationStats(allocator=allocator.name)
    # The move-count loop nest is the same one round 0 will use; reuse
    # the cached copy instead of re-deriving CFG + loops when available.
    if round0 is not None:
        loops_for_count = round0.loops
    else:
        loops_for_count = compute_loops(build_cfg(func))
    stats.moves_before, stats.moves_before_weighted = _count_moves(
        func, loops_for_count, stats
    )

    outcome: RoundOutcome | None = None
    ctx: RoundContext | None = None
    prev_analyses: RoundAnalyses | None = None
    delta: SpillDelta | None = None
    for round_index in range(max_rounds):
        stats.rounds = round_index + 1
        if round_index == 0 and assume_renumbered:
            ren = None  # only consumed by spill rounds, which renumber
        else:
            with phase("renumber"):
                # The CFG never changes across spill rounds; hand the
                # previous round's to renumber so it skips a rebuild.
                ren = renumber(
                    func,
                    cfg=prev_analyses.cfg
                    if prev_analyses is not None else None,
                )
        analyses = None
        if round_index == 0 and round0 is not None:
            # Retained analyses are only valid under the policy whose
            # spill costs they carry; a mismatch falls back to a fresh
            # (policy-correct) analysis below.
            ig = round0.ig_for(func) if round0.policy == policy else None
            if ig is not None:
                analyses = RoundAnalyses(
                    cfg=round0.cfg, loops=round0.loops,
                    liveness=round0.liveness, ig=ig,
                    spill_costs=round0.spill_costs,
                    block_rows=round0.block_rows,
                    block_costs=round0.block_costs,
                    policy=round0.policy,
                )
        if analyses is None and delta is not None:
            with phase("reanalyze"):
                analyses = prev_analyses.apply_delta(func, delta, ren)
        if analyses is None:
            with phase("analyze" if round_index == 0 else "reanalyze"):
                analyses = compute_round_analyses(
                    func, collect_deltas=True, policy=policy
                )
        ctx = RoundContext(
            func=func,
            machine=machine,
            cfg=analyses.cfg,
            loops=analyses.loops,
            liveness=analyses.liveness,
            ig=analyses.ig,
            spill_costs=analyses.spill_costs,
            round_index=round_index,
            policy=policy,
        )
        with phase("color"):
            outcome = allocator.allocate_round(ctx)
        stats.coalesced_count += outcome.coalesced_count
        stats.biased_hits += outcome.biased_hits
        if not outcome.spilled:
            break
        stats.spilled_webs += len(outcome.spilled)
        with phase("spill-insert"):
            report = insert_spill_code(func, outcome.spilled,
                                       rematerialize=rematerialize)
        delta = report.delta
        prev_analyses = analyses
    else:
        raise AllocationError(
            f"{allocator.name}: no fixed point after {max_rounds} rounds"
        )

    assert outcome is not None and ctx is not None
    with phase("rewrite"):
        assignment = _full_assignment(func, outcome)
        _rewrite(func, assignment, ctx.loops, machine, stats)
    return AllocationResult(
        func=func, machine=machine, stats=stats, assignment=assignment
    )


def _count_moves(func: Function, loops: LoopInfo,
                 stats: AllocationStats) -> tuple[int, float]:
    static, weighted = 0, 0.0
    for blk in func.blocks:
        freq = loops.freq(blk.label)
        for instr in blk.instrs:
            if instr.is_move:
                static += 1
                weighted += freq
                rclass = instr.defs()[0].rclass
                stats.moves_before_class[rclass] = (
                    stats.moves_before_class.get(rclass, 0) + 1
                )
    return static, weighted


def _full_assignment(
    func: Function, outcome: RoundOutcome
) -> dict[VReg, PReg]:
    assignment: dict[VReg, PReg] = {}
    for v in func.vregs():
        assignment[v] = outcome.resolve(v)
    return assignment


def _rewrite(
    func: Function,
    assignment: dict[VReg, PReg],
    loops: LoopInfo,
    machine: TargetMachine,
    stats: AllocationStats,
) -> None:
    """Replace vregs with their colors; delete now-identity moves."""
    used: dict[RegClass, set[PReg]] = {}
    for blk in func.blocks:
        freq = loops.freq(blk.label)
        kept = []
        for instr in blk.instrs:
            mapping: dict = {
                v: assignment[v]
                for v in set(instr.used_regs()) | set(instr.defs())
                if isinstance(v, VReg)
            }
            if mapping:
                instr.replace(mapping)
            if isinstance(instr, Move) and instr.dst == instr.src:
                stats.moves_eliminated += 1
                stats.moves_eliminated_weighted += freq
                rclass = instr.dst.rclass
                stats.moves_eliminated_class[rclass] = (
                    stats.moves_eliminated_class.get(rclass, 0) + 1
                )
                continue
            if isinstance(instr, (SpillLoad, SpillStore)):
                if isinstance(instr, SpillLoad):
                    stats.spill_loads += 1
                    rclass = instr.dst.rclass
                else:
                    stats.spill_stores += 1
                    rclass = instr.src.rclass
                stats.spill_weighted += freq
                stats.spills_class[rclass] = (
                    stats.spills_class.get(rclass, 0) + 1
                )
            for reg in list(instr.defs()) + list(instr.used_regs()):
                if isinstance(reg, PReg):
                    used.setdefault(reg.rclass, set()).add(reg)
            kept.append(instr)
        blk.instrs = kept
    for rclass, regs in used.items():
        regfile = machine.file(rclass)
        stats.nonvolatile_used[rclass] = sum(
            1 for r in regs if not regfile.is_volatile(r)
        )
