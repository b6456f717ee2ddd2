"""Per-function allocation sessions for the edit-driven incremental path.

A session retains what a from-scratch allocation throws away: the
prepared+renumbered *reference* form of each function and its round-0
analyses.  When the next edit of the same source arrives, the session
diffs the new raw body against the retained raw body
(:func:`repro.ir.diff.diff_functions`) and takes the cheapest sound
path down a three-rung ladder:

* **value** — the edit is *transparent* (constant values, opcodes,
  load/store offsets inside matched blocks): every prepare/renumber
  artifact of the base carries over verbatim, so the session patches
  the changed values onto a clone of the retained reference through a
  position map and reuses the retained analyses wholesale.  The
  position map is built once per reference from instruction *identity*:
  raw instructions are mutated in place by SSA/DCE/lowering, so an
  ``id()``-keyed scan of the prepared function recovers where each raw
  instruction landed (instructions dropped by DCE simply have no entry
  — deadness is value-independent, so skipping their edits is exact).
* **struct** — the edit is structural but block-local: the new body is
  prepared and renumbered from scratch, diffed against the retained
  reference in register-pairing mode, and the retained analyses are
  patched through the delta
  (:func:`repro.analysis.incremental.apply_function_delta`).
* **rebuild** — the delta is inconsistent, touches too much of the
  function, or a patch precondition fails: full re-prepare and
  re-analysis, which is exactly the from-scratch path.

Whatever the rung, allocation itself runs on a clone of the reference
with ``assume_renumbered=True``, so the result is byte-identical to a
from-scratch run (renumbering is deterministic).  The ladder is
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
from dataclasses import dataclass, field

from repro.analysis.renumber import renumber
from repro.ir.clone import clone_function
from repro.ir.diff import diff_functions
from repro.ir.function import Function
from repro.ir.parser import parse_module
from repro.ir.printer import print_function, print_module
from repro.ir.validate import validate_function
from repro.policy import DEFAULT_POLICY, Policy
from repro.profiling import phase
from repro.regalloc.base import (
    AllocationOptions,
    AllocationResult,
    AllocationStats,
    Allocator,
    RoundAnalyses,
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


def _prepare_ref(raw: Function, machine: TargetMachine):
    """Prepare+renumber a clone of ``raw``; map raw positions into it.

    Returns ``(ref, posmap)`` where ``posmap`` maps ``(label, index)``
    of a raw instruction to the ``(label, index)`` where that same
    object sits in the reference (absent when DCE dropped it).  The
    strong ``originals`` list pins every raw instruction alive through
    the scan so a recycled ``id()`` can never alias a new instruction
    created by SSA construction or lowering.
    """
    # Deferred import: pipeline imports regalloc.base like we do, but
    # the service layer is allowed to sit on top of it, not inside it.
    from repro.pipeline import prepare_function

    work = clone_function(raw)
    originals = [instr for blk in work.blocks for instr in blk.instrs]
    premap = {
        id(instr): (blk.label, i)
        for blk in work.blocks
        for i, instr in enumerate(blk.instrs)
    }
    prepare_function(work, machine)
    renumber(work)
    posmap: dict[tuple[str, int], tuple[str, int]] = {}
    for blk in work.blocks:
        for i, instr in enumerate(blk.instrs):
            raw_pos = premap.get(id(instr))
            if raw_pos is not None:
                posmap[raw_pos] = (blk.label, i)
    del originals
    return work, posmap


@dataclass(eq=False)
class FunctionSession:
    """Retained state of one function: raw body, reference, analyses."""

    name: str
    #: the raw (parsed, un-prepared) body the next edit is diffed against
    raw: Function
    #: prepared + renumbered reference the analyses describe; never
    #: mutated — allocation and value-patching always work on clones
    ref: Function
    analyses: RoundAnalyses
    #: raw ``(label, index)`` -> reference ``(label, index)``
    posmap: dict
    #: ``(allocator, result-shaping options)`` -> ``(result, cycles)``
    #: for *this exact body*; shared across identical advances (an
    #: unchanged function in a multi-function module skips allocation
    #: outright), dropped on any edit
    memo: dict = field(default_factory=dict)

    @classmethod
    def build(cls, parsed: Function, machine: TargetMachine,
              policy: Policy = DEFAULT_POLICY) -> "FunctionSession":
        """A fresh session for ``parsed`` (the from-scratch rung)."""
        raw = clone_function(parsed)
        ref, posmap = _prepare_ref(raw, machine)
        analyses = compute_round_analyses(ref, collect_deltas=True,
                                          policy=policy)
        return cls(name=parsed.name, raw=raw, ref=ref, analyses=analyses,
                   posmap=posmap)

    def advance(self, parsed: Function,
                machine: TargetMachine) -> tuple["FunctionSession", str]:
        """The session for the edited body, plus the ladder rung taken.

        ``parsed`` is the new raw body; the rung is ``"value"``
        (transparent edit, analyses shared), ``"struct"`` (analyses
        patched through a renumbered-mode delta), or ``"rebuild"``
        (full re-prepare).  ``self`` is left usable — other edits may
        still branch off the same base digest.
        """
        delta = diff_functions(self.raw, parsed)
        if delta.transparent:
            validate_function(parsed)
            if delta.identical:
                return FunctionSession(
                    name=self.name, raw=clone_function(parsed),
                    ref=self.ref, analyses=self.analyses,
                    posmap=self.posmap, memo=self.memo,
                ), "value"
            ref = clone_function(self.ref)
            with phase("patch"):
                blocks = {blk.label: blk for blk in ref.blocks}
                for edit in delta.value_edits:
                    pos = self.posmap.get((edit.label, edit.index))
                    if pos is None:
                        continue  # DCE'd; deadness is value-independent
                    label, index = pos
                    setattr(blocks[label].instrs[index], edit.attr,
                            edit.new)
            return FunctionSession(
                name=self.name, raw=clone_function(parsed), ref=ref,
                analyses=self.analyses, posmap=self.posmap,
            ), "value"
        if not delta.consistent:
            return FunctionSession.build(parsed, machine,
                                         self.analyses.policy), "rebuild"
        raw = clone_function(parsed)
        ref, posmap = _prepare_ref(raw, machine)
        rdelta = diff_functions(self.ref, ref, pair_registers=True)
        analyses = None
        if rdelta.consistent:
            analyses = self.analyses.apply_edit_delta(ref, rdelta)
        rung = "struct"
        if analyses is None:
            analyses = compute_round_analyses(ref, collect_deltas=True,
                                              policy=self.analyses.policy)
            rung = "rebuild"
        return FunctionSession(name=self.name, raw=raw, ref=ref,
                               analyses=analyses, posmap=posmap), rung


@dataclass(eq=False)
class IncrementalAllocation:
    """One :func:`allocate_function_incremental` outcome."""

    result: AllocationResult
    cycles: CycleReport
    session: FunctionSession
    #: ladder rung taken: ``new`` (no base session), ``value``,
    #: ``struct``, or ``rebuild``
    path: str


def _allocate_on(session: FunctionSession, machine: TargetMachine,
                 allocator: Allocator, options: AllocationOptions):
    """Allocate a clone of the session's reference; verify + cycles."""
    func = clone_function(session.ref)
    result = allocate_function(func, machine, allocator, options=options,
                               round0=session.analyses,
                               assume_renumbered=True)
    if options.verify:
        verify_allocation(func, machine)
    return result, estimate_cycles(func, machine)


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
    :func:`~repro.regalloc.base.allocate_function` run.
    """
    if options is None:
        options = AllocationOptions.from_env()
    with phase("session"):
        # A session built under a different policy carries analyses
        # (spill costs and everything derived from them) that are not
        # this request's; retained state is only sound policy-for-policy.
        stale_policy = (session is not None
                        and session.analyses.policy != options.policy)
        if session is None or stale_policy:
            fresh = FunctionSession.build(func, machine, options.policy)
            path = "new" if session is None else "rebuild"
        else:
            fresh, path = session.advance(func, machine)
    memo_key = (allocator.name, options.max_rounds, options.rematerialize,
                options.verify, options.policy.digest())
    hit = fresh.memo.get(memo_key)
    if hit is not None:
        result, cycles = hit
    else:
        result, cycles = _allocate_on(fresh, machine, allocator, options)
        fresh.memo[memo_key] = (result, cycles)
    return IncrementalAllocation(result=result, cycles=cycles,
                                 session=fresh, path=path)


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
    return request_fingerprint(normalized_ir, machine, "", verify=False)


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
    digest-sharded router that routes ``allocate_delta`` lines by
    ``base_digest`` keeps a keystroke stream pinned to the shard
    holding its session.  Correctness never depends on the lookup:
    whatever (or nothing) the token resolves to, the differ reconciles
    the retained state with the new body or rebuilds from scratch.
    ``info``, when given, is filled with ``base_hit`` and the per-rung
    ``paths`` counts for the caller's metrics.
    """
    # Deferred import: the scheduler imports this module for its store.
    from repro.service.scheduler import ALLOCATOR_FACTORIES

    request.validate()
    name = effective_allocator or request.allocator
    if options is None:
        options = request.options
    machine = request.machine.build()
    module = parse_module(request.ir)
    machine_key = canonical_json(machine_descriptor(machine))
    if not options.policy.is_default():
        # Retained sessions are policy-specific (see
        # allocate_function_incremental); keying the store entry by the
        # policy too keeps a chain from thrashing another policy's
        # sessions under the same token.
        machine_key += "+policy:" + options.policy.digest()
    base = None
    if request.base_digest:
        base = store.get(request.base_digest, machine_key)
    allocator = ALLOCATOR_FACTORIES[name]()
    stats = AllocationStats(allocator=allocator.name)
    cycles = CycleReport()
    results: list[AllocationResult] = []
    sessions: dict[str, FunctionSession] = {}
    paths: dict[str, int] = {}
    for func in module.functions:
        prev = base.functions.get(func.name) if base is not None else None
        out = allocate_function_incremental(prev, func, machine, allocator,
                                            options)
        results.append(out.result)
        stats.merge(out.result.stats)
        cycles.add(out.cycles)
        sessions[func.name] = out.session
        paths[out.path] = paths.get(out.path, 0) + 1
    digest = request.base_digest or session_digest(
        print_module(module), machine)
    store.put(digest, ModuleSession(digest=digest, machine_key=machine_key,
                                    functions=sessions))
    if info is not None:
        info["base_hit"] = base is not None
        info["paths"] = paths
    response = AllocationResponse(
        id=request.id,
        ok=True,
        allocator=request.allocator,
        effective_allocator=name,
        degraded=name != request.allocator,
        code="\n\n".join(print_function(r.func) for r in results),
        stats=stats_to_dict(stats),
        cycles=cycles_to_dict(cycles),
    )
    response = response.seal()
    response.session_digest = digest
    return response
