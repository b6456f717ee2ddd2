"""End-to-end compilation pipeline.

    generate -> validate -> SSA -> DCE -> out-of-SSA (copy-rich) ->
    lower calling convention -> [allocator under test] -> verify ->
    cycle estimate

``prepare_module`` produces the allocator input once; ``allocate_module``
clones it per allocator so every algorithm colors the *same* code — the
precondition for the ratio figures.

Two throughput levers, both result-neutral:

* round-0 analyses (CFG, loops, liveness, interference, spill costs) are
  memoized per *prepared* function, so sweeping many allocators — or
  timing one repeatedly — re-analyzes nothing on the first round;
* ``allocate_module(..., options=AllocationOptions(jobs=N))`` fans
  functions out over the persistent :mod:`repro.exec` worker pool.
  Results are merged in submission order and every tie-break in the
  allocators is deterministic, so ``jobs=N`` output is byte-identical to
  ``jobs=1`` — even when a worker crashes mid-batch and its jobs are
  retried elsewhere (or, past the retry budget, re-run serially here).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.analysis.renumber import renumber
from repro.exec import WorkerPoolUnavailable, get_default_pool
from repro.ir.clone import clone_function, clone_module
from repro.ir.function import Function, Module
from repro.ir.validate import validate_function
from repro.regalloc.base import (
    AllocationOptions,
    AllocationResult,
    AllocationStats,
    Allocator,
    RoundAnalyses,
    _resolve_options,
    allocate_function,
    compute_round_analyses,
)
from repro.policy import DEFAULT_POLICY, Policy
from repro.profiling import phase
from repro.regalloc.verify import verify_allocation
from repro.sim.cycles import CycleReport, estimate_cycles
from repro.ssa.construct import to_ssa
from repro.ssa.dce import eliminate_dead_code
from repro.ssa.destruct import from_ssa
from repro.target.lowering import lower_function
from repro.target.machine import TargetMachine

__all__ = ["ModuleAllocation", "prepare_function", "prepare_module",
           "allocate_module", "round0_analyses"]


@dataclass(eq=False)
class ModuleAllocation:
    """One allocator's results over one prepared module."""

    allocator: str
    machine: TargetMachine
    results: list[AllocationResult] = field(default_factory=list)
    stats: AllocationStats = field(default_factory=AllocationStats)
    cycles: CycleReport = field(default_factory=CycleReport)


def prepare_function(func: Function, machine: TargetMachine) -> Function:
    """Run the pre-allocation pipeline on ``func`` in place."""
    with phase("prepare"):
        validate_function(func)
        to_ssa(func)
        validate_function(func, ssa=True)
        eliminate_dead_code(func)
        from_ssa(func)
        lower_function(func, machine)
        validate_function(func)
    return func


def prepare_module(module: Module, machine: TargetMachine) -> Module:
    """A lowered deep copy of ``module``, ready for any allocator."""
    prepared = clone_module(module)
    for func in prepared.functions:
        prepare_function(func, machine)
    return prepared


#: prepared function -> {policy digest -> round-0 analyses of a
#: pristine renumbered clone}.  Keyed weakly so dropping a prepared
#: module frees its analyses too; the inner key separates policies
#: because spill costs (and so every structure built on them) are
#: policy-weighted.
_round0_cache: "WeakKeyDictionary[Function, dict[str, RoundAnalyses]]" = (
    WeakKeyDictionary()
)


def round0_analyses(prepared_func: Function,
                    policy: Policy = DEFAULT_POLICY) -> RoundAnalyses:
    """Memoized first-round analyses of one prepared function.

    Computed on a renumbered *reference clone* so the cached structures
    are never touched by an allocator's in-place rewrite; every clone of
    ``prepared_func`` renumbers to the same names (renumbering is
    deterministic), so the analyses transfer to any round 0.  The
    per-block summaries are collected so round 1 can patch them.
    """
    per_policy = _round0_cache.setdefault(prepared_func, {})
    cached = per_policy.get(policy.digest())
    if cached is None:
        ref = clone_function(prepared_func)
        renumber(ref)
        cached = compute_round_analyses(ref, collect_deltas=True,
                                        policy=policy)
        per_policy[policy.digest()] = cached
    return cached


def _allocate_one(
    prepared_func: Function,
    machine: TargetMachine,
    allocator: Allocator,
    options: AllocationOptions,
) -> tuple[AllocationResult, CycleReport]:
    """Allocate one function from its prepared form, serially."""
    func = clone_function(prepared_func)
    round0 = None
    if options.reuse_analyses:
        round0 = round0_analyses(prepared_func, options.policy)
    result = allocate_function(func, machine, allocator, options=options,
                               round0=round0)
    if options.verify:
        verify_allocation(func, machine)
    return result, estimate_cycles(func, machine)


def _pool_results(prepared, machine, allocator, options, pool):
    """Run the module's functions through the worker pool.

    Returns submission-ordered ``(AllocationResult, CycleReport)`` pairs.
    Per-job outcomes: worker *errors* re-raise here (same behavior as a
    serial run); jobs whose workers kept *crashing* past the retry
    budget are re-run serially in this process (byte-identical, just
    slower); *deadline* kills past the retry budget raise
    :class:`~repro.exec.JobDeadlineError` for the service layer to
    degrade on.
    """
    deadline_s = (None if options.deadline_ms is None
                  else options.deadline_ms / 1000.0)
    payloads = [(func, machine, allocator, options)
                for func in prepared.functions]
    batch = pool.run_batch(payloads, deadline_s=deadline_s)
    merged = []
    for func, job in zip(prepared.functions, batch):
        if job.ok:
            merged.append(job.value)
        elif job.kind == "deadline":
            raise job.error
        elif job.kind == "crash":
            warnings.warn(
                f"worker pool gave up on {func.name!r} after "
                f"{job.attempts} attempts ({job.error}); "
                f"falling back to serial allocation for it",
                RuntimeWarning,
                stacklevel=3,
            )
            merged.append(_allocate_one(func, machine, allocator, options))
        else:
            raise job.error
    return merged


def allocate_module(
    prepared: Module,
    machine: TargetMachine,
    allocator: Allocator,
    options: AllocationOptions | None = None,
    *,
    pool=None,
    verify: bool | None = None,
    jobs: int | None = None,
    reuse_analyses: bool | None = None,
) -> ModuleAllocation:
    """Clone ``prepared``, allocate every function, sum stats and cycles.

    All knobs ride on ``options`` (:class:`AllocationOptions`); the bare
    ``verify``/``jobs``/``reuse_analyses`` keywords are deprecated shims.
    ``options.jobs > 1`` allocates functions on the persistent
    :mod:`repro.exec` worker pool; stats and cycle totals are merged in
    the module's function order regardless of completion order, so the
    result is identical to a sequential run.  ``pool`` injects a
    specific :class:`~repro.exec.WorkerPool` (fault-injection tests and
    the resilience benchmark); by default the shared module-level pool
    is used and stays warm across calls.
    """
    options = _resolve_options(
        options, verify=verify, jobs=jobs, reuse_analyses=reuse_analyses
    )
    out = ModuleAllocation(allocator=allocator.name, machine=machine)
    out.stats.allocator = allocator.name
    merged = None
    if options.jobs > 1 and len(prepared.functions) > 1:
        try:
            if pool is None:
                pool = get_default_pool(workers=options.jobs)
            pool.ensure_started()
        except (WorkerPoolUnavailable, OSError, PermissionError,
                RuntimeError) as err:
            # Sandboxed / no-fork environments can refuse to start the
            # pool; the answer is the same either way, just slower.
            # Only *startup* falls back — once the batch is running,
            # task errors propagate and crashed workers are handled
            # per-job inside _pool_results.
            warnings.warn(
                f"process pool unavailable ({err!r}); "
                f"falling back to serial allocation",
                RuntimeWarning,
                stacklevel=2,
            )
            pool = None
        if pool is not None:
            merged = _pool_results(prepared, machine, allocator, options,
                                   pool)
    if merged is None:
        merged = [
            _allocate_one(func, machine, allocator, options)
            for func in prepared.functions
        ]
    for result, cycles in merged:
        out.results.append(result)
        out.stats.merge(result.stats)
        out.cycles.add(cycles)
    return out
