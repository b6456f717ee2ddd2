"""The allocation job executed inside worker-pool processes.

One payload is either the serial tuple ``(prepared_func, machine,
allocator, options)`` — exactly what
:func:`repro.pipeline._allocate_one` consumes — or, on the codec wire
path, a digest-reference control tuple (see :mod:`repro.exec.wire`)
that resolves to the same tuple plus precomputed content digests.  The return value is
``(AllocationResult, CycleReport)`` either way.

The worker keeps a **warm round-0 analysis cache** keyed by *content*,
not by object identity: every batch ships fresh ``Function`` copies
into the worker, but renumbering is deterministic, so the round-0
analyses of any copy of a prepared function are value-identical (the
same argument that backs :func:`repro.pipeline.round0_analyses`).  The
content key is the codec digest (``sha256`` of
:func:`repro.ir.codec.encode_function`) plus the machine's register
model — on the codec wire path both digests arrive *with* the job, so
keying the cache costs nothing; payloads the wire passes through
untouched compute the same digests locally.  A
service sweeping eight allocators over one module therefore analyzes
each function once per worker, not once per job — and the results
remain byte-identical to a cold serial run.

The cache holds at most :data:`ROUND0_CACHE_MAX` entries.  Options
travel *in the payload*, never through worker environment variables: a
persistent worker forked long ago must honor the caller's current
options, not whatever ``os.environ`` said at spawn time.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["run_alloc_job", "round0_cache_info", "clear_round0_cache",
           "ROUND0_CACHE_MAX"]

#: content key -> RoundAnalyses (per worker process, bounded LRU)
_ROUND0_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
#: the round-0 LRU bound (entries per worker process)
ROUND0_CACHE_MAX = 64
_hits = 0
_misses = 0


def _content_key(func, machine, policy,
                 func_digest: str | None = None,
                 machine_digest: str | None = None) -> tuple:
    from repro.exec.wire import machine_content_digest
    from repro.ir.codec import function_digest

    if func_digest is None:
        func_digest = function_digest(func)
    if machine_digest is None:
        machine_digest = machine_content_digest(machine)
    return (
        func_digest,
        machine_digest,
        # Default policy adds nothing: keys (and so warm entries) are
        # unchanged for all pre-policy traffic.
        None if policy.is_default() else policy.digest(),
    )


def _warm_round0(func, machine, policy,
                 func_digest: str | None = None,
                 machine_digest: str | None = None):
    global _hits, _misses
    from repro.analysis.renumber import renumber
    from repro.ir.clone import clone_function
    from repro.regalloc.base import compute_round_analyses

    key = _content_key(func, machine, policy, func_digest,
                       machine_digest)
    cached = _ROUND0_CACHE.get(key)
    if cached is not None:
        _ROUND0_CACHE.move_to_end(key)
        _hits += 1
        return cached
    _misses += 1
    ref = clone_function(func)
    renumber(ref)
    analyses = compute_round_analyses(ref, collect_deltas=True,
                                      policy=policy)
    _ROUND0_CACHE[key] = analyses
    while len(_ROUND0_CACHE) > ROUND0_CACHE_MAX:
        _ROUND0_CACHE.popitem(last=False)
    return analyses


def run_alloc_job(payload):
    """Allocate one prepared function; the pool's default task."""
    from repro.exec.wire import is_wire_job, resolve_job
    from repro.regalloc.base import allocate_function
    from repro.regalloc.verify import verify_allocation
    from repro.sim.cycles import estimate_cycles

    func_digest = machine_digest = None
    if is_wire_job(payload):
        (func, machine, allocator, options,
         func_digest, machine_digest) = resolve_job(payload)
    else:
        func, machine, allocator, options = payload
    round0 = None
    if options.reuse_analyses:
        round0 = _warm_round0(func, machine,
                              policy=options.policy,
                              func_digest=func_digest,
                              machine_digest=machine_digest)
    result = allocate_function(func, machine, allocator,
                               options=options, round0=round0)
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
