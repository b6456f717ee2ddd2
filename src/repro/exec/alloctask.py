"""The allocation job executed inside worker-pool processes.

One payload is a wire control tuple (see :mod:`repro.exec.wire`,
packed by :func:`repro.pipeline._pool_results`) that resolves to the
serial tuple ``(prepared_func, machine, allocator, options)`` — exactly
what :func:`repro.pipeline._allocate_one` consumes.  The return value
is ``(AllocationResult, CycleReport)``, with the result's
``round0_outcome`` cleared.

The job allocates its private decoded copy of the function directly:
``allocate_function`` renumbers it and analyzes round 0 itself, so a
job renumbers once plus once per spill round, as the serial path does.
Renumbering is deterministic, so the result is byte-identical to the
serial path's, which allocates a clone of a memoized renumbered
reference instead.  The worker keeps no per-function cache: repeated
requests are answered by the service's result cache before they reach
a worker.

Options travel *in the payload*, never through worker environment
variables: a persistent worker forked long ago must honor the caller's
current options, not whatever ``os.environ`` said at spawn time.
"""

from __future__ import annotations

__all__ = ["run_alloc_job"]


def run_alloc_job(payload):
    """Allocate one prepared function from a wire job; the pool's
    default task."""
    from repro.exec.wire import job_function, resolve_objects
    from repro.regalloc.base import allocate_function
    from repro.regalloc.verify import verify_allocation
    from repro.sim.cycles import estimate_cycles

    machine, allocator, options = resolve_objects(payload)
    func = job_function(payload)  # a private copy: allocate it in place
    result = allocate_function(func, machine, allocator, options=options)
    # The round-0 coloring is only ever carried by edit sessions, which
    # never run through the pool; do not pickle it back to the parent.
    result.round0_outcome = None
    if options.verify:
        verify_allocation(func, machine)
    return result, estimate_cycles(func, machine)
