"""Allocator framework: round context, driver loop, stats, rewriting.

Every allocator variant (Chaitin, Briggs, optimistic, call-cost,
preference-directed) implements one *round*: given the current
function's interference structure, produce either a complete coloring or
a set of live ranges to spill.  The shared :func:`allocate_function`
driver runs rounds to a fixed point — renumber, analyze, color, and on
spills insert spill code and rebuild, exactly the loop of the paper's
Figures 1–3 and 8 — then rewrites the function onto physical registers.
"""

from __future__ import annotations

import abc
import math
import os
from dataclasses import dataclass, field, replace

from repro.analysis.interference import InterferenceGraph, build_interference
from repro.analysis.liveness import Liveness, compute_liveness
from repro.analysis.renumber import renumber
from repro.cfg.analysis import CFG, build_cfg
from repro.cfg.loops import LoopInfo, compute_loops
from repro.errors import AllocationError
from repro.ir.function import Function
from repro.ir.instructions import Move, SpillLoad, SpillStore
from repro.ir.values import PReg, RegClass, Register, VReg
from repro.profiling import phase
from repro.regalloc.costs import compute_spill_costs
from repro.regalloc.igraph import AllocGraph, build_alloc_graph
from repro.regalloc.spill import insert_spill_code
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
    mix of keywords and environment variables.

    Fields that change *results* (``max_rounds``, ``rematerialize``,
    ``verify``) are part of the service cache fingerprint;
    the rest (``jobs``, ``deadline_ms``) are result-neutral execution
    policy — any combination of them yields byte-identical
    allocations.  No field picks an implementation strategy: every
    spill round re-analyzes from scratch (keeping only the
    branch-free CFG and loop nest), and round-0 analyses are always
    reused.

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
    deadline_ms: float | None = None
    #: service disk-cache directory (None = ~/.cache/repro); carried
    #: here so ``$REPRO_CACHE_DIR`` has exactly one reader, but not
    #: serialized onto the wire (it is server-local policy).
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.deadline_ms is not None:
            if not isinstance(self.deadline_ms, (int, float)) or isinstance(
                self.deadline_ms, bool
            ):
                raise ValueError("deadline_ms must be a number or None")
            # json.loads reads Infinity and NaN; neither is a deadline
            # the worker pool can wait on.
            if not math.isfinite(self.deadline_ms):
                raise ValueError(
                    f"deadline_ms must be finite, got {self.deadline_ms}")
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

    #: fields serialized onto the service wire (cache_dir is local)
    WIRE_FIELDS = ("max_rounds", "rematerialize", "verify", "jobs",
                   "deadline_ms")
    #: exact types of the scalar wire fields (``bool`` is not an
    #: ``int`` here: JSON ``true`` is no round count)
    _WIRE_TYPES = {"max_rounds": int, "jobs": int,
                   "rematerialize": bool, "verify": bool}

    def to_dict(self) -> dict:
        """JSON-safe wire form (``deadline_ms: None`` is omitted)."""
        wire = {name: getattr(self, name) for name in self.WIRE_FIELDS}
        if wire["deadline_ms"] is None:
            del wire["deadline_ms"]
        return wire

    @classmethod
    def from_dict(cls, wire: dict) -> "AllocationOptions":
        if not isinstance(wire, dict):
            raise ValueError(f"options must be an object, got {wire!r}")
        unknown = set(wire) - set(cls.WIRE_FIELDS)
        if unknown:
            raise ValueError(f"unknown option field(s) {sorted(unknown)}")
        for name, kind in cls._WIRE_TYPES.items():
            if name in wire and type(wire[name]) is not kind:
                raise ValueError(f"{name} must be a {kind.__name__}, "
                                 f"got {wire[name]!r}")
        return cls(**wire)


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

    def graph(self, rclass: RegClass) -> AllocGraph:
        """A fresh per-class coloring graph for this round."""
        return build_alloc_graph(self.ig, self.machine, rclass,
                                 self.spill_costs)

    def classes(self) -> list[RegClass]:
        """Register classes that actually occur in the function."""
        index = self.ig.index
        vregs = ~index.preg_mask
        return [rc for rc, mask in ((RegClass.INT, index.int_mask),
                                    (RegClass.FLOAT, index.float_mask))
                if mask & vregs]


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

    def apply_delta(self, func: Function) -> "RoundAnalyses":
        """The analyses of ``func`` after one spill round.

        ``func`` must already be spill-rewritten and renumbered.  Spill
        code is branch-free, so the CFG and loop nest carry over;
        liveness, interference and spill costs are recomputed.
        """
        return compute_round_analyses(func, cfg=self.cfg, loops=self.loops)

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
        # The index and rows are shared, read-only to every allocator.
        return InterferenceGraph(self.ig.index, self.ig.rows, moves)


def compute_round_analyses(
    func: Function,
    *,
    cfg: CFG | None = None,
    loops: LoopInfo | None = None,
) -> RoundAnalyses:
    """Analyze one (already renumbered) function for an allocation round.

    ``cfg`` and ``loops`` are handed in together when they are known to
    describe ``func`` (a spill round keeps the previous round's);
    otherwise they are built here.
    """
    if cfg is None:
        with phase("cfg"):
            cfg = build_cfg(func)
            loops = compute_loops(cfg)
    with phase("liveness"):
        liveness = compute_liveness(func, cfg)
    with phase("interference"):
        ig = build_interference(func, cfg, liveness)
    with phase("spill-costs"):
        spill_costs = compute_spill_costs(func, loops, cfg)
    return RoundAnalyses(cfg=cfg, loops=loops, liveness=liveness, ig=ig,
                         spill_costs=spill_costs)


class Allocator(abc.ABC):
    """Interface implemented by each allocation algorithm."""

    #: short name used in benchmark tables
    name: str = "abstract"

    @abc.abstractmethod
    def allocate_round(self, ctx: RoundContext) -> RoundOutcome:
        """Color the current function or nominate spills."""

    def config_key(self) -> tuple:
        """Hashable identity of everything that shapes this allocator's
        decisions: allocators with equal keys color equal inputs
        identically.  ``name`` alone is not enough — ablation switches
        keep the default name — so the key carries every instance
        attribute; subclasses holding per-run state override it.
        """
        return (type(self).__qualname__, self.name,
                tuple(sorted(vars(self).items())))


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
    #: the round-0 coloring this allocation started from (computed or
    #: carried in); shared, never mutated — see ``round0_outcome`` of
    #: :func:`allocate_function`
    round0_outcome: RoundOutcome | None = field(default=None, repr=False)


def allocate_function(
    func: Function,
    machine: TargetMachine,
    allocator: Allocator,
    options: AllocationOptions | None = None,
    *,
    round0: RoundAnalyses | None = None,
    round0_outcome: RoundOutcome | None = None,
    assume_renumbered: bool = False,
) -> AllocationResult:
    """Run ``allocator`` on ``func`` to completion (in place).

    ``options`` carries every knob (see :class:`AllocationOptions`);
    when omitted it is built by :meth:`AllocationOptions.from_env`.

    ``options.rematerialize`` re-emits single-constant spilled live
    ranges instead of storing/reloading them (Briggs-style
    rematerialization).

    ``round0`` supplies precomputed first-round analyses (from
    :func:`compute_round_analyses` on a renumbered clone of the same
    prepared function).  Spill rounds re-analyze the spill-rewritten
    function from scratch, keeping only the previous round's CFG and
    loop nest (:meth:`RoundAnalyses.apply_delta`).

    ``assume_renumbered=True`` skips the round-0 renumber: the caller
    vouches that ``func`` is already in renumbered form (a clone of —
    or value-identical to — the function ``round0`` analyzed).  All
    three production paths pass it: the serial pipeline, the pool
    worker and the session layer allocate a clone of the renumbered
    reference their retained round-0 analyses describe.  Spill rounds
    still renumber normally.

    ``round0_outcome`` is a round-0 coloring from an earlier run of an
    allocator with the same :meth:`Allocator.config_key` on a function
    round 0 cannot tell apart from ``func`` (same registers, instruction
    classes, blocks, and load bases and offsets; see
    :mod:`repro.service.session`).  It replaces the round-0
    ``allocate_round`` call; spill rounds after it run as usual.  It is
    only read, never mutated, and the result's ``round0_outcome`` hands
    back whichever round-0 coloring was used.  Per-run side outputs of
    ``allocate_round`` (``PreferenceDirectedAllocator.last_trace``) are
    not refreshed for a carried round.
    """
    if options is None:
        options = AllocationOptions.from_env()
    max_rounds = options.max_rounds
    rematerialize = options.rematerialize
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
    first: RoundOutcome | None = None
    ctx: RoundContext | None = None
    analyses: RoundAnalyses | None = None
    for round_index in range(max_rounds):
        stats.rounds = round_index + 1
        if analyses is not None:
            with phase("renumber"):
                # The CFG never changes across spill rounds; hand the
                # previous round's to renumber so it skips a rebuild.
                renumber(func, cfg=analyses.cfg)
            with phase("reanalyze"):
                analyses = analyses.apply_delta(func)
        else:
            if not assume_renumbered:
                with phase("renumber"):
                    renumber(func)
            if round0 is not None:
                ig = round0.ig_for(func)
                if ig is not None:
                    analyses = replace(round0, ig=ig)
            if analyses is None:
                with phase("analyze"):
                    analyses = compute_round_analyses(func)
        ctx = RoundContext(
            func=func,
            machine=machine,
            cfg=analyses.cfg,
            loops=analyses.loops,
            liveness=analyses.liveness,
            ig=analyses.ig,
            spill_costs=analyses.spill_costs,
            round_index=round_index,
        )
        if round_index == 0 and round0_outcome is not None:
            outcome = round0_outcome
        else:
            with phase("color"):
                outcome = allocator.allocate_round(ctx)
        if round_index == 0:
            first = outcome
        stats.coalesced_count += outcome.coalesced_count
        stats.biased_hits += outcome.biased_hits
        if not outcome.spilled:
            break
        stats.spilled_webs += len(outcome.spilled)
        with phase("spill-insert"):
            insert_spill_code(func, outcome.spilled,
                              rematerialize=rematerialize)
    else:
        raise AllocationError(
            f"{allocator.name}: no fixed point after {max_rounds} rounds"
        )

    assert outcome is not None and ctx is not None
    with phase("rewrite"):
        assignment = _full_assignment(func, outcome)
        _rewrite(func, assignment, ctx.loops, machine, stats)
    return AllocationResult(
        func=func, machine=machine, stats=stats, assignment=assignment,
        round0_outcome=first,
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
