"""Per-function allocation sessions for the edit-driven path.

A session retains what a from-scratch allocation throws away: the
prepared+renumbered *reference* form of each function, its round-0
analyses, and each allocator's round-0 coloring and finished
allocation.  When the next edit of the same source arrives, the
session diffs the new raw body against the retained raw body
(:func:`repro.ir.diff.diff_functions`) and takes the cheapest sound
path down a three-rung ladder:

* **value** — the edit is *transparent* (constant values, opcodes,
  load/store offsets inside matched blocks): every prepare/renumber
  artifact of the base carries over verbatim, so the session patches
  the changed values into the retained reference through a position
  map and reuses the retained analyses wholesale.  The
  position map is built once per reference from instruction *identity*:
  raw instructions are mutated in place by SSA/DCE/lowering, so an
  ``id()``-keyed scan of the prepared function recovers where each raw
  instruction landed (instructions dropped by DCE simply have no entry
  — deadness is value-independent, so skipping their edits is exact).
  The round-0 colorings carry over too, so allocation starts at the
  spill rounds (or the rewrite) instead of recoloring; and when the
  retained allocation ran no spill round, its finished code and its
  printed lines carry over as well, with the same edits patched in.
* **rename** — an edit whose prepared+renumbered body is the retained
  reference up to a renaming of its vregs (:func:`_is_rename`), such
  as a dead instruction that DCE removes but whose insertion or
  deletion shifts every web id: the session keeps the retained
  reference, analyses and per-allocator results whole, and takes only
  the new raw body and its position map (positions coincide, so later
  value edits still land).
* **rebuild** — any other edit: the analyses of the freshly prepared
  body, which is exactly the from-scratch path.

Why a result survives a rename: the renaming must be a bijection that
keeps each vreg's class and ``no_spill`` flag, the same block labels
and lengths, instruction classes, physical registers and every
non-register field (type-strictly: ``1`` is not ``1.0``), position for
position; and it must keep the two orders allocators read vregs
through — id order (the tie-breaks of simplify, select, the CPG and
spill insertion) and ``str`` order
(``regalloc/callcost.py::_biased_choice`` sorts copy partners by
name), for names extended by a suffix too, as spill temporaries and
later rounds' webs are.  The allocated code prints no vreg but the
params in its header, which must print alike; every other vreg is
colored away.  The third way
allocators see vregs is hash-set iteration, which a rename does change
(a vreg's hash is its id); no result depends on it, which the tier-1
property ``TestRenameRung`` checks: every allocator's code, stats and
cycles are invariant under id-shifting renames of suite functions,
spilling ones included.  The retained results carry the retained
reference's vregs in ``AllocationResult.assignment``; the code, stats
and cycles are the scratch run's, byte for byte.

Why a round-0 coloring survives a value edit: round 0 reads the
function only through its register operands and instruction classes,
its blocks and loop frequencies, the retained analyses (liveness,
interference, spill costs — already shared by the value rung), and
``Load.base``/``Load.offset``, which :mod:`repro.core.pairs` compares to
find the ``sequential±`` paired-load preferences (a base is a register
or a constant address such as ``load [100+4]``; only the constant can
change in a value edit).  No allocator reads an opcode or any other
constant operand, and ``ConstInst.value`` is read only by
rematerialization during spill insertion, which runs after round 0 and
is never carried.  So a value advance keeps every allocator's round-0
outcome — unless one of its edits changes a ``base`` or an ``offset``
(:data:`ROUND0_VISIBLE_EDITS`), which can make or break a paired load;
then the colorings are dropped.  An identical advance keeps the
finished results as well; a rebuild starts with none.

Why a finished allocation survives the same edits when it ran no spill
round: after round 0 the driver only rewrites — it maps each vreg to
its color and drops the moves that became identities — and counts the
stats on the way, none of which reads a constant, an opcode or an
offset.  The appendix cost model (:mod:`repro.sim.cycles`) charges
instruction classes, registers, loop frequencies and fused paired
loads; pairing is the only thing in it that reads a base or an offset,
and those edits already void the entry.  So the allocated code of the
edited body is the retained allocated code with the edits patched in,
and its stats, assignment and cycle report are the retained
ones.  The edits reach the allocated code through a second ``id()``
map, reference position -> allocated position, taken around the
allocation; the rewrite mutates instructions in place and drops only
moves, which no value edit targets.  A spill round voids the argument
(rematerialization copies ``ConstInst.value`` into new instructions),
so a version that spilled takes the full tail.  The patch is lazy per
allocator: edits queue in the retained entry until that allocator is
next requested, and ``verify_allocation`` still checks the whole
patched function.

Retained outcomes, results and functions are shared and never mutated:
a patched version shares every instruction but the edited ones with
the version before it (:func:`_with_edits`) and re-prints only their
lines of the retained rendering.  Whatever the rung, allocation itself
runs on a clone of the reference with ``assume_renumbered=True``, so
the result is byte-identical to a from-scratch run (renumbering is
deterministic).  The ladder is
always on; the from-scratch path is the oracle the tests compare every
rung against (``tests/oracles.py``: analyses, rendered code, stats, and
cycle estimates).

:class:`SessionStore` holds :class:`ModuleSession` objects keyed by the
*base digest* — the same module+machine content fingerprint the
scheduler's prepared-module cache uses — with LRU eviction, and
:func:`execute_delta_request` is the ``allocate_delta`` compute path
mirroring :func:`repro.service.scheduler.execute_request`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace

from repro.analysis.renumber import renumber
from repro.ir.clone import clone_function, clone_instruction
from repro.ir.diff import diff_functions, same_constant
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
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
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.validate import validate_function
from repro.ir.values import Const, VReg
from repro.profiling import phase
from repro.regalloc.base import (
    AllocationOptions,
    AllocationResult,
    AllocationStats,
    Allocator,
    RoundAnalyses,
    RoundOutcome,
    allocate_function,
    compute_round_analyses,
)
from repro.regalloc.verify import verify_allocation
from repro.reporting import canonical_json
from repro.service.cache import request_fingerprint
from repro.service.protocol import (
    AllocationRequest,
    AllocationResponse,
    cycles_to_dict,
    machine_descriptor,
    stats_to_dict,
)
from repro.sim.cycles import CycleReport, estimate_cycles
from repro.target.machine import TargetMachine

__all__ = [
    "FunctionSession",
    "ModuleSession",
    "SessionStore",
    "IncrementalAllocation",
    "allocate_function_incremental",
    "execute_delta_request",
]

#: value-edit attributes round 0 can see: a changed constant load base or
#: load offset can make or break a paired-load preference, so either
#: voids the retained colorings (store edits share the names and are
#: dropped too, conservatively)
ROUND0_VISIBLE_EDITS = frozenset({"offset", "base"})


class _Provenance:
    """Where each instruction of ``func`` lands after in-place passes.

    Positions are tracked by instruction *identity*: the passes this
    follows (prepare, renumber, allocation's rewrite) mutate surviving
    instructions in place.  The strong ``_pinned`` list keeps every
    original instruction alive so a recycled ``id()`` can never alias a
    new instruction a pass creates.
    """

    def __init__(self, func: Function):
        self._pinned = [instr for blk in func.blocks for instr in blk.instrs]
        self._before = {
            id(instr): (blk.label, i)
            for blk in func.blocks
            for i, instr in enumerate(blk.instrs)
        }

    def landing(self, func: Function) -> dict:
        """Old ``(label, index)`` -> new ``(label, index)`` for every
        original instruction still in ``func`` (absent when dropped)."""
        moved: dict[tuple[str, int], tuple[str, int]] = {}
        for blk in func.blocks:
            for i, instr in enumerate(blk.instrs):
                pos = self._before.get(id(instr))
                if pos is not None:
                    moved[pos] = (blk.label, i)
        return moved


def _prepare_ref(raw: Function, machine: TargetMachine):
    """Prepare+renumber a clone of ``raw``; map raw positions into it.

    Returns ``(ref, posmap)`` where ``posmap`` maps ``(label, index)``
    of a raw instruction to the ``(label, index)`` where that same
    object sits in the reference (absent when DCE dropped it).
    """
    # Deferred import: pipeline imports regalloc.base like we do, but
    # the service layer is allowed to sit on top of it, not inside it.
    from repro.pipeline import prepare_function

    with phase("clone"):
        work = clone_function(raw)
    seen = _Provenance(work)
    prepare_function(work, machine)
    with phase("renumber"):
        renumber(work)
    return work, seen.landing(work)


def _with_edits(func: Function, edits: dict) -> Function:
    """``func`` with ``edits`` (``(label, index, attr)`` -> new value)
    set on copies of the edited instructions; every other instruction
    object is shared with ``func``, which is left as it was."""
    out = replace(func, params=list(func.params), blocks=[
        BasicBlock(blk.label, list(blk.instrs)) for blk in func.blocks])
    blocks = {blk.label: blk.instrs for blk in out.blocks}
    for label, index in {key[:2] for key in edits}:
        blocks[label][index] = clone_instruction(blocks[label][index])
    for (label, index, attr), new in edits.items():
        setattr(blocks[label][index], attr, new)
    return out


#: instruction class -> its dataclass field names, register operands
#: and every other field alike
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in (
    ConstInst, Move, UnaryOp, BinOp, Load, Store, Call, Phi, Jump, Branch,
    Ret, SpillLoad, SpillStore)}


class _Renaming:
    """A vreg bijection between two references, grown operand by operand.

    :meth:`match` pairs a retained operand with the fresh operand at the
    same place; :meth:`order_preserving` then checks the pairs keep the
    orders allocators read.
    """

    def __init__(self):
        #: fresh vreg -> retained vreg, and back
        self.fwd: dict[VReg, VReg] = {}
        self.back: dict[VReg, VReg] = {}

    def match(self, old, new) -> bool:
        """Whether retained ``old`` and fresh ``new`` agree, up to the
        vreg renaming (extended by this pair when it is new)."""
        kind = type(old)
        if type(new) is not kind:
            return False  # also keeps 1 apart from 1.0 and True
        if kind is VReg:
            seen = self.fwd.get(new)
            if seen is not None:
                return seen == old
            if (self.back.setdefault(old, new) != new
                    or old.rclass is not new.rclass
                    or old.no_spill != new.no_spill):
                return False
            self.fwd[new] = old
            return True
        if kind is list:
            return len(old) == len(new) and all(
                map(self.match, old, new))
        if kind is Const:
            return (old.rclass is new.rclass
                    and self.match(old.value, new.value))
        if kind is float:
            return same_constant(old, new)  # -0.0 prints apart from 0.0
        return old == new  # PRegs, strings, ints, labels, None

    def order_preserving(self) -> bool:
        """Whether the pairs keep id order, and ``str`` order (ties
        included) of every name *and* of every name extended by a
        suffix: spill temporaries and later rounds' webs are named
        ``<name>.<suffix>``, so wherever one name is a prefix of
        another its image must be too, with the same remainder."""
        pairs = sorted(self.fwd.items(), key=lambda pair: pair[0].id)
        ids = [old.id for _, old in pairs]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            return False
        names = {(str(new), str(old)) for new, old in pairs}
        if all(new == old for new, old in names):
            return True  # the common case: only ids moved
        names = sorted(names)
        for (new1, old1), (new2, old2) in zip(names, names[1:]):
            if not (old1 < old2 if new1 < new2 else old1 == old2):
                return False
        to_old = dict(names)
        to_new = {old: new for new, old in names}
        return _keeps_prefixes(to_old) and _keeps_prefixes(to_new)


def _keeps_prefixes(image: dict[str, str]) -> bool:
    """Whether every name in ``image`` that extends another name maps
    to the other's image extended by the same remainder."""
    for name, target in image.items():
        for cut in range(1, len(name)):
            head = image.get(name[:cut])
            if head is not None and head + name[cut:] != target:
                return False
    return True


def _is_rename(retained: Function, fresh: Function) -> bool:
    """Whether ``fresh`` is ``retained`` up to an order-preserving
    bijective vreg renaming: same block labels and lengths, params
    (printed alike: the allocated code's header shows them),
    instruction classes, physical registers and non-register fields
    (compared type-strictly), position for position."""
    if (retained.returns_value != fresh.returns_value
            or retained.next_slot != fresh.next_slot
            or len(retained.blocks) != len(fresh.blocks)
            or list(map(str, retained.params))
            != list(map(str, fresh.params))):
        return False
    renaming = _Renaming()
    if not renaming.match(retained.params, fresh.params):
        return False
    match = renaming.match
    for old_blk, new_blk in zip(retained.blocks, fresh.blocks):
        if (old_blk.label != new_blk.label
                or len(old_blk.instrs) != len(new_blk.instrs)):
            return False
        for old, new in zip(old_blk.instrs, new_blk.instrs):
            kind = type(old)
            if type(new) is not kind:
                return False
            for name in _FIELDS[kind]:
                if not match(getattr(old, name), getattr(new, name)):
                    return False
    return renaming.order_preserving()


def _tail_carries(result: AllocationResult) -> bool:
    """Whether ``result`` survives value edits round 0 cannot see.

    Only without spill rounds: rematerialization (spill insertion)
    reads ``ConstInst.value``, so a spilling version takes the full
    tail.
    """
    return result.stats.rounds == 1


@dataclass(eq=False)
class Retained:
    """One allocator's retained work on a session body."""

    #: the round-0 coloring; valid for every body reachable through
    #: value edits round 0 cannot see (read-only, shared across versions)
    outcome: RoundOutcome
    #: ``(result, cycles, lines)`` of a finished allocation (``lines``:
    #: its printed function, line by line): of *this exact body* when
    #: ``pending`` is ``None``, else of an earlier version ``pending``
    #: turns into this one.  Read-only, shared across versions
    finished: tuple[AllocationResult, CycleReport, list[str]] | None = None
    #: reference ``(label, index)`` -> ``(label, index)`` in the finished
    #: function; set only when the finished tail carries over value edits
    #: (:func:`_tail_carries`), and position-stable under them
    placed: dict | None = None
    #: value edits not yet patched onto ``finished``, as reference
    #: ``(label, index, attr)`` -> new value; queued across versions this
    #: allocator was not requested on, a later edit of a slot winning
    pending: dict | None = None

    def after(self, edits: dict) -> "Retained":
        """This entry for the body ``edits`` (reference-position value
        edits round 0 cannot see) lead to."""
        if self.placed is None:
            return Retained(self.outcome)
        return Retained(self.outcome, self.finished, self.placed,
                        {**(self.pending or {}), **edits})


@dataclass(eq=False)
class FunctionSession:
    """Retained state of one function: raw body, reference, analyses."""

    name: str
    #: the raw (parsed, un-prepared) body the next edit is diffed against
    raw: Function
    #: prepared + renumbered reference the analyses describe; never
    #: mutated (allocation works on a clone, value advances share it)
    ref: Function
    analyses: RoundAnalyses
    #: raw ``(label, index)`` -> reference ``(label, index)``
    posmap: dict
    #: ``(allocator config, result-shaping options)`` -> :class:`Retained`;
    #: shared whole across identical and rename advances (an unchanged
    #: function in a multi-function module skips allocation outright);
    #: across value advances round 0 cannot see, outcomes carry over,
    #: and spill-free finished results with the edits queued onto them;
    #: dropped on any other edit
    memo: dict = field(default_factory=dict)

    @classmethod
    def build(cls, parsed: Function,
              machine: TargetMachine) -> "FunctionSession":
        """A fresh session for ``parsed`` (the from-scratch rung), which
        the caller hands over: it becomes the raw body, never mutated."""
        ref, posmap = _prepare_ref(parsed, machine)
        analyses = compute_round_analyses(ref)
        return cls(name=parsed.name, raw=parsed, ref=ref, analyses=analyses,
                   posmap=posmap)

    def advance(self, parsed: Function,
                machine: TargetMachine) -> tuple["FunctionSession", str]:
        """The session for the edited body, plus the ladder rung taken.

        ``parsed`` is the new raw body; the rung is ``"value"``
        (transparent edit, analyses shared), ``"rename"`` (re-prepared
        body renames the retained reference; everything shared) or
        ``"rebuild"`` (analyses of the re-prepared body).  ``self`` is
        left usable — other edits may still branch off the same base
        digest.  The caller hands ``parsed`` over, as to :meth:`build`.
        """
        delta = diff_functions(self.raw, parsed)
        if delta.transparent:
            with phase("validate"):
                validate_function(parsed)
            if delta.identical:
                return FunctionSession(
                    name=self.name, raw=parsed, ref=self.ref,
                    analyses=self.analyses, posmap=self.posmap,
                    memo=self.memo,
                ), "value"
            edits = {}
            with phase("patch"):
                for edit in delta.value_edits:
                    pos = self.posmap.get((edit.label, edit.index))
                    if pos is None:
                        continue  # DCE'd; deadness is value-independent
                    edits[(*pos, edit.attr)] = edit.new
                ref = _with_edits(self.ref, edits)
            memo = {}
            if not any(edit.attr in ROUND0_VISIBLE_EDITS
                       for edit in delta.value_edits):
                memo = {key: kept.after(edits)
                        for key, kept in self.memo.items()}
            return FunctionSession(
                name=self.name, raw=parsed, ref=ref, analyses=self.analyses,
                posmap=self.posmap, memo=memo,
            ), "value"
        ref, posmap = _prepare_ref(parsed, machine)
        with phase("rename"):
            renamed = _is_rename(self.ref, ref)
        if renamed:
            return FunctionSession(
                name=self.name, raw=parsed, ref=self.ref,
                analyses=self.analyses, posmap=posmap, memo=self.memo,
            ), "rename"
        analyses = compute_round_analyses(ref)
        return FunctionSession(name=self.name, raw=parsed, ref=ref,
                               analyses=analyses, posmap=posmap), "rebuild"


@dataclass(eq=False)
class IncrementalAllocation:
    """One :func:`allocate_function_incremental` outcome."""

    result: AllocationResult
    cycles: CycleReport
    #: ``print_function(result.func)``, kept from the retained lines
    code: str
    session: FunctionSession
    #: ladder rung taken: ``new`` (no base session), ``value``,
    #: ``rename`` or ``rebuild``
    path: str
    #: allocation started from a retained round-0 coloring (or
    #: patched a retained finished allocation, which started from it)
    coloring_reused: bool = False


def _allocate_on(session: FunctionSession, machine: TargetMachine,
                 allocator: Allocator, options: AllocationOptions,
                 outcome: RoundOutcome | None) -> Retained:
    """Allocate a clone of the session's reference; verify + cycles."""
    with phase("clone"):
        func = clone_function(session.ref)
    seen = _Provenance(func)
    result = allocate_function(func, machine, allocator, options=options,
                               round0=session.analyses,
                               round0_outcome=outcome,
                               assume_renumbered=True)
    if options.verify:
        with phase("verify"):
            verify_allocation(func, machine)
    cycles = estimate_cycles(func, machine)
    placed = seen.landing(func) if _tail_carries(result) else None
    with phase("render"):
        lines = print_function(func).split("\n")
    return Retained(result.round0_outcome, (result, cycles, lines), placed)


def _patch_finished(kept: Retained, machine: TargetMachine,
                    options: AllocationOptions) -> Retained:
    """Patch ``kept``'s pending value edits into a new version of its
    finished function and its printed lines; stats, assignment and
    cycle report carry over as they are.

    Sound because the rewrite, the stats and the appendix cost model
    read no constant, opcode or offset (load bases and offsets, which
    pairing reads, never get here: they void the whole entry), and every
    edited instruction survives a spill-free rewrite, which drops only
    identity moves.  A slot is missing from ``placed`` only when spill
    insertion rematerialized the instruction away, copying its constant
    elsewhere; :func:`_tail_carries` keeps such results out.
    """
    done, cycles, lines = kept.finished
    with phase("tail-patch"):
        edits = {}
        for (label, index, attr), new in kept.pending.items():
            pos = kept.placed.get((label, index))
            if pos is not None:
                edits[(*pos, attr)] = new
        func = _with_edits(done.func, edits)
    with phase("render"):
        # print_function's layout: a header line, then each block's
        # label line followed by its instructions
        first, row, lines = {}, 2, list(lines)
        for blk in func.blocks:
            first[blk.label] = row
            row += 1 + len(blk.instrs)
        blocks = {blk.label: blk.instrs for blk in func.blocks}
        for label, index, _ in edits:
            lines[first[label] + index] = f"  {blocks[label][index]}"
    if options.verify:
        with phase("verify"):
            verify_allocation(func, machine)
    result = AllocationResult(func=func, machine=machine, stats=done.stats,
                              assignment=done.assignment,
                              round0_outcome=done.round0_outcome)
    return Retained(kept.outcome, (result, cycles, lines), kept.placed)


def allocate_function_incremental(
    session: FunctionSession | None,
    func: Function,
    machine: TargetMachine,
    allocator: Allocator,
    options: AllocationOptions | None = None,
) -> IncrementalAllocation:
    """Allocate raw ``func``, reusing ``session`` state where sound.

    ``session`` is the :class:`FunctionSession` of the *previous*
    version of the function (``None`` for the first sighting);
    ``func`` is its new raw (parsed, un-prepared) body.  The returned
    :class:`IncrementalAllocation` carries the allocation, the cycle
    estimate, the *new* session to retain for the next edit, and the
    ladder rung taken.  The result is byte-identical to a from-scratch
    :func:`~repro.regalloc.base.allocate_function` run.  The caller
    hands ``func`` over: the new session keeps it, never mutated.
    """
    if options is None:
        options = AllocationOptions.from_env()
    with phase("session"):
        if session is None:
            fresh = FunctionSession.build(func, machine)
            path = "new"
        else:
            fresh, path = session.advance(func, machine)
    memo_key = (allocator.config_key(), options.max_rounds,
                options.rematerialize, options.verify)
    kept = fresh.memo.get(memo_key)
    if kept is None or kept.finished is None:
        carried = kept.outcome if kept is not None else None
        kept = fresh.memo[memo_key] = _allocate_on(
            fresh, machine, allocator, options, carried)
        reused = carried is not None
    elif kept.pending is not None:
        kept = fresh.memo[memo_key] = _patch_finished(kept, machine,
                                                      options)
        reused = True
    else:
        reused = False
    result, cycles, lines = kept.finished
    return IncrementalAllocation(result=result, cycles=cycles,
                                 code="\n".join(lines),
                                 session=fresh, path=path,
                                 coloring_reused=reused)


@dataclass(eq=False)
class ModuleSession:
    """Sessions of every function of one module version, under one digest."""

    digest: str
    #: canonical machine descriptor; a session only serves requests
    #: naming the machine it was built for
    machine_key: str
    functions: dict[str, FunctionSession] = field(default_factory=dict)


def session_digest(normalized_ir: str, machine: TargetMachine) -> str:
    """A fresh edit chain's store token: content digest of IR+machine.

    Only the chain *start* (no ``base_digest``) mints a token; later
    edits keep reusing it, so one key follows the whole stream.
    Allocator and options are deliberately excluded — one retained
    session serves every allocator, exactly like the scheduler's
    prepared-module cache (same fingerprint function, same key).
    """
    return request_fingerprint(normalized_ir, machine, "",
                               AllocationOptions(verify=False))


class SessionStore:
    """LRU store of :class:`ModuleSession` objects keyed by base digest."""

    def __init__(self, capacity: int = 32):
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[str, ModuleSession]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, digest: str,
            machine_key: str | None = None) -> ModuleSession | None:
        entry = self._entries.get(digest)
        if entry is None or (machine_key is not None
                             and entry.machine_key != machine_key):
            self.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        return entry

    def put(self, digest: str, session: ModuleSession) -> None:
        self._entries[digest] = session
        self._entries.move_to_end(digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def snapshot(self) -> dict:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def execute_delta_request(
    request: AllocationRequest,
    store: SessionStore,
    options: AllocationOptions | None = None,
    *,
    effective_allocator: str | None = None,
    info: dict | None = None,
) -> AllocationResponse:
    """Run one ``allocate_delta`` request against a session store.

    Mirrors :func:`repro.service.scheduler.execute_request`: same
    response shape, same ``result_digest`` input — the response is
    byte-identical to the full path for the same IR, plus a
    ``session_digest``: the token naming the store entry retained for
    the new module version, which the client echoes as ``base_digest``
    on its next edit.  The token is *stable along an edit chain* — a
    known ``base_digest`` is reused as the storage key, and an unknown
    one adopts the client's token after a one-time scratch build — so a
    client echoes one token for the whole chain.  Correctness never
    depends on the lookup:
    whatever (or nothing) the token resolves to, the differ reconciles
    the retained state with the new body or rebuilds from scratch.
    ``info``, when given, is filled with ``base_hit``, the per-rung
    ``paths`` counts and ``colorings_reused`` (functions whose
    allocation started from a retained round-0 coloring) for the
    caller's metrics.
    """
    # Deferred import: the scheduler imports this module for its store.
    from repro.service.scheduler import ALLOCATOR_FACTORIES

    request.validate()
    name = effective_allocator or request.allocator
    if options is None:
        options = request.options
    machine = request.machine.build()
    with phase("parse"):
        module = parse_module(request.ir)
    machine_key = canonical_json(machine_descriptor(machine))
    base = None
    if request.base_digest:
        base = store.get(request.base_digest, machine_key)
    allocator = ALLOCATOR_FACTORIES[name]()
    stats = AllocationStats(allocator=allocator.name)
    cycles = CycleReport()
    codes: list[str] = []
    sessions: dict[str, FunctionSession] = {}
    paths: dict[str, int] = {}
    reused = 0
    for func in module.functions:
        prev = base.functions.get(func.name) if base is not None else None
        out = allocate_function_incremental(prev, func, machine, allocator,
                                            options)
        codes.append(out.code)
        stats.merge(out.result.stats)
        cycles.add(out.cycles)
        sessions[func.name] = out.session
        paths[out.path] = paths.get(out.path, 0) + 1
        reused += out.coloring_reused
    digest = request.base_digest or session_digest(
        print_module(module), machine)
    store.put(digest, ModuleSession(digest=digest, machine_key=machine_key,
                                    functions=sessions))
    if info is not None:
        info["base_hit"] = base is not None
        info["paths"] = paths
        info["colorings_reused"] = reused
    with phase("render"):
        response = AllocationResponse(
            id=request.id,
            ok=True,
            allocator=request.allocator,
            effective_allocator=name,
            degraded=name != request.allocator,
            code="\n\n".join(codes),
            stats=stats_to_dict(stats),
            cycles=cycles_to_dict(cycles),
        ).seal()
    response.session_digest = digest
    return response
