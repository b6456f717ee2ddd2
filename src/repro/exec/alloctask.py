"""The allocation job executed inside worker-pool processes.

One payload is a wire control tuple (see :mod:`repro.exec.wire`,
packed by :func:`repro.pipeline._pool_results`) that resolves to the
serial tuple ``(prepared_func, machine, allocator, options)`` — exactly
what :func:`repro.pipeline._allocate_one` consumes — plus its content
digests.  The return value is ``(AllocationResult, CycleReport)``, with
the result's ``round0_outcome`` cleared.

The worker keeps a **warm round-0 cache** keyed by *content*, not by
object identity: every job ships a fresh copy of its function, but
renumbering is deterministic, so the renumbered reference and round-0
analyses of any copy of a prepared function are value-identical (the
same argument that backs :func:`repro.pipeline.round0_analyses`).  The
content key is the codec digest (``sha256`` of
:func:`repro.ir.codec.encode_function`) plus the machine's register
model; both digests arrive *with* the job, so keying the cache costs
nothing.  Each entry holds the renumbered reference next to its
analyses, and a job allocates a clone of that reference with
``assume_renumbered=True``, as the serial path does: round 0 renumbers
nothing, and the job's function is decoded only to build the reference
on a miss.  A service sweeping eight allocators over one module
therefore renumbers and analyzes each function once per worker, not
once per job — and the results remain byte-identical to a cold serial
run.

The cache holds at most :data:`ROUND0_CACHE_MAX` entries.  Options
travel *in the payload*, never through worker environment variables: a
persistent worker forked long ago must honor the caller's current
options, not whatever ``os.environ`` said at spawn time.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["run_alloc_job", "round0_cache_info", "clear_round0_cache",
           "ROUND0_CACHE_MAX"]

#: content key -> (renumbered reference, RoundAnalyses) (per worker
#: process, bounded LRU)
_ROUND0_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
#: the round-0 LRU bound (entries per worker process)
ROUND0_CACHE_MAX = 64
_hits = 0
_misses = 0


def _warm_round0(payload, policy, func_digest: str, machine_digest: str):
    """The job's renumbered reference function and its round-0
    analyses, built from the job's function on a miss."""
    global _hits, _misses
    from repro.analysis.renumber import renumber
    from repro.exec.wire import job_function
    from repro.regalloc.base import compute_round_analyses

    # Default policy adds nothing: keys (and so warm entries) are
    # unchanged for all pre-policy traffic.
    key = (func_digest, machine_digest,
           None if policy.is_default() else policy.digest())
    cached = _ROUND0_CACHE.get(key)
    if cached is not None:
        _ROUND0_CACHE.move_to_end(key)
        _hits += 1
        return cached
    _misses += 1
    ref = job_function(payload)  # a private copy: renumber it in place
    renumber(ref)
    cached = (ref, compute_round_analyses(ref, policy))
    _ROUND0_CACHE[key] = cached
    while len(_ROUND0_CACHE) > ROUND0_CACHE_MAX:
        _ROUND0_CACHE.popitem(last=False)
    return cached


def run_alloc_job(payload):
    """Allocate one prepared function from a wire job; the pool's
    default task."""
    from repro.exec.wire import resolve_objects
    from repro.ir.clone import clone_function
    from repro.regalloc.base import allocate_function
    from repro.regalloc.verify import verify_allocation
    from repro.sim.cycles import estimate_cycles

    (machine, allocator, options,
     func_digest, machine_digest) = resolve_objects(payload)
    ref, round0 = _warm_round0(payload, options.policy, func_digest,
                               machine_digest)
    func = clone_function(ref)
    result = allocate_function(func, machine, allocator, options=options,
                               round0=round0, assume_renumbered=True)
    # The round-0 coloring is only ever carried by edit sessions, which
    # never run through the pool; do not pickle it back to the parent.
    result.round0_outcome = None
    if options.verify:
        verify_allocation(func, machine)
    return result, estimate_cycles(func, machine)


def round0_cache_info() -> dict:
    """Hit/miss counters of *this process's* warm cache (tests)."""
    return {"entries": len(_ROUND0_CACHE), "hits": _hits,
            "misses": _misses}


def clear_round0_cache() -> None:
    global _hits, _misses
    _ROUND0_CACHE.clear()
    _hits = _misses = 0
