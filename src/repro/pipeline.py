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
from repro.exec.alloctask import pack_jobs
from repro.ir.clone import clone_function, clone_module
from repro.ir.function import Function, Module
from repro.ir.validate import validate_function
from repro.regalloc.base import (
    AllocationOptions,
    AllocationResult,
    AllocationStats,
    Allocator,
    RoundAnalyses,
    allocate_function,
    compute_round_analyses,
)
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
        with phase("validate"):
            validate_function(func)
        with phase("ssa"):
            to_ssa(func)
        with phase("validate"):
            validate_function(func, ssa=True)
        with phase("dce"):
            eliminate_dead_code(func)
        with phase("out-of-ssa"):
            from_ssa(func)
        with phase("lower"):
            lower_function(func, machine)
        with phase("validate"):
            validate_function(func)
    return func


def prepare_module(module: Module, machine: TargetMachine) -> Module:
    """A lowered deep copy of ``module``, ready for any allocator."""
    prepared = clone_module(module)
    for func in prepared.functions:
        prepare_function(func, machine)
    return prepared


#: prepared function -> ``(ref, analyses)``: ``ref`` is a renumbered
#: clone of it, never mutated (every allocation works on a clone of
#: ``ref``), and ``analyses`` are ``ref``'s round-0 analyses.  Keyed
#: weakly so dropping a prepared module frees both.
_round0_cache: "WeakKeyDictionary[Function, tuple]" = WeakKeyDictionary()


def round0_analyses(prepared_func: Function
                    ) -> tuple[Function, RoundAnalyses]:
    """Memoized renumbered reference of one prepared function and its
    first-round analyses.

    The reference is never touched by an allocator's in-place rewrite:
    :func:`_allocate_one` allocates a clone of it with
    ``assume_renumbered=True``, so a cold allocation renumbers the
    function once (here) instead of twice.  Renumbering is
    deterministic, so any clone of ``prepared_func`` renumbers to the
    same names and the analyses transfer to every round 0.
    """
    entry = _round0_cache.get(prepared_func)
    if entry is None:
        ref = clone_function(prepared_func)
        renumber(ref)
        entry = _round0_cache[prepared_func] = (
            ref, compute_round_analyses(ref))
    return entry


def _allocate_one(
    prepared_func: Function,
    machine: TargetMachine,
    allocator: Allocator,
    options: AllocationOptions,
) -> tuple[AllocationResult, CycleReport]:
    """Allocate one function from its prepared form, serially.

    Works on a clone of the memoized renumbered reference (see
    :func:`round0_analyses`), so round 0 skips its renumber; spill
    rounds still renumber.
    """
    ref, round0 = round0_analyses(prepared_func)
    func = clone_function(ref)
    result = allocate_function(func, machine, allocator, options=options,
                               round0=round0, assume_renumbered=True)
    if options.verify:
        verify_allocation(func, machine)
    return result, estimate_cycles(func, machine)


def _pool_results(prepared, machine, allocator, options, pool):
    """Run the module's functions through the worker pool.

    Each function ships as one job: the bytes of its pickled ``(func,
    shared)`` pair, ``shared`` being the ``(machine, allocator,
    options)`` pickled once for the batch
    (:func:`repro.exec.alloctask.pack_jobs`), which the pool hands to
    :func:`repro.exec.alloctask.run_alloc_job` unchanged.  Jobs are
    pickled here, once, so the pool's dispatch (and any retry) only
    wraps bytes instead of walking object graphs.  Returns
    submission-ordered ``(AllocationResult, CycleReport)`` pairs.
    Per-job outcomes: worker *errors* re-raise here (same behavior as
    a serial run); jobs whose workers kept *crashing* past the retry
    budget are re-run serially in this process (byte-identical, just
    slower); *deadline* kills past the retry budget raise
    :class:`~repro.exec.JobDeadlineError` for the service layer to
    degrade on.
    """
    deadline_s = (None if options.deadline_ms is None
                  else options.deadline_ms / 1000.0)
    with phase("dispatch"):
        payloads = pack_jobs(prepared.functions, machine, allocator,
                             options)
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
) -> ModuleAllocation:
    """Clone ``prepared``, allocate every function, sum stats and cycles.

    All knobs ride on ``options`` (:class:`AllocationOptions`; ``None``
    means :meth:`AllocationOptions.from_env`).  ``options.jobs > 1``
    allocates functions on the persistent :mod:`repro.exec` worker pool; stats and cycle totals are merged in
    the module's function order regardless of completion order, so the
    result is identical to a sequential run.  ``pool`` injects a
    specific :class:`~repro.exec.WorkerPool` (the service scheduler and
    the fault-injection tests); by default the shared module-level pool
    is used and stays warm across calls.
    """
    if options is None:
        options = AllocationOptions.from_env()
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
