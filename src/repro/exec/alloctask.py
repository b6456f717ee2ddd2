"""The allocation job executed inside worker-pool processes.

One payload is the bytes of one pickled ``(prepared_func, shared)``
pair, where ``shared`` is the bytes of the batch's pickled ``(machine,
allocator, options)``: :func:`pack_jobs` pickles those three once per
batch, so each job copies their bytes instead of walking their object
graphs again.  Unpacked, a job is exactly what
:func:`repro.pipeline._allocate_one` consumes.  The return value is
``(AllocationResult, CycleReport)``, with the result's
``round0_outcome`` cleared.

Unpickling gives the job a private copy of the function, which it
allocates in place: ``allocate_function`` renumbers it and analyzes
round 0 itself, so a job renumbers once plus once per spill round, as
the serial path does.  Renumbering is deterministic, so the result is
byte-identical to the serial path's, which allocates a clone of a
memoized renumbered reference instead.  The worker keeps no
per-function cache: repeated requests are answered by the service's
result cache before they reach a worker.

Options travel *in the payload*, never through worker environment
variables: a persistent worker forked long ago must honor the caller's
current options, not whatever ``os.environ`` said at spawn time.
"""

from __future__ import annotations

import pickle

__all__ = ["pack_jobs", "run_alloc_job"]


def pack_jobs(funcs, machine, allocator, options) -> list[bytes]:
    """One job per function of a batch, sharing the pickled ``(machine,
    allocator, options)``."""
    shared = pickle.dumps((machine, allocator, options),
                          pickle.HIGHEST_PROTOCOL)
    return [pickle.dumps((func, shared), pickle.HIGHEST_PROTOCOL)
            for func in funcs]


def run_alloc_job(payload: bytes):
    """Allocate one prepared function from a pickled job; the pool's
    default task."""
    from repro.regalloc.base import allocate_function
    from repro.regalloc.verify import verify_allocation
    from repro.sim.cycles import estimate_cycles

    func, shared = pickle.loads(payload)
    machine, allocator, options = pickle.loads(shared)
    result = allocate_function(func, machine, allocator, options=options)
    # The round-0 coloring is only ever carried by edit sessions, which
    # never run through the pool; do not pickle it back to the parent.
    result.round0_outcome = None
    if options.verify:
        verify_allocation(func, machine)
    return result, estimate_cycles(func, machine)
