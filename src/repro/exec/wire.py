"""Digest-keyed wire encoding for worker-pool dispatch.

:func:`pack_job` turns one ``(func, machine, allocator, options)``
payload into a self-contained control tuple: the four **content
digests** plus a ``{digest: blob}`` map holding that job's blobs — the
function's :mod:`repro.ir.codec` encoding and the pickled machine,
allocator and options.  The pool pickles the tuple like any other
payload and keeps no state about it beyond the job, so a retried job
re-sends the same tuple.

Workers decode each function digest once into a bounded LRU and hand
out private :func:`~repro.ir.clone.clone_function` copies (allocation
mutates in place), which are byte-identical to an unpickled copy
because the codec round-trips ``print_function`` text exactly.  The
allocation task takes its copy with :func:`job_function`;
:func:`resolve_objects` reads the rest of a job without decoding the
function.  Machines, allocators and
options are read-only across jobs (the serial path already shares one
instance for a whole module sweep), so workers cache them by digest
and unpickle each once.  The tests check decoded functions against the
shipped originals (``tests/oracles.py::check_wire_jobs``).
"""

from __future__ import annotations

import hashlib
import pickle
import weakref
from collections import OrderedDict

from repro.errors import CodecError
from repro.profiling import phase

__all__ = [
    "WIRE_TAG",
    "pack_job",
    "is_wire_job",
    "resolve_objects",
    "job_function",
    "machine_content_digest",
    "wire_stats",
    "reset_wire_stats",
    "decode_cache_info",
    "clear_decode_cache",
]

#: First element of every wire control tuple; versioned so a worker
#: from a future wire format rejects instead of misparsing.
WIRE_TAG = "repro-wire-v3"

#: parent-side per-object memos, keyed by identity (WeakKey) so an
#: 8-allocator sweep over one prepared module encodes each function
#: (and pickles each machine/allocator/options object) once, not once
#: per job.
_ENCODE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_MACHINE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_PICKLE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_STATS = {
    "jobs_packed": 0,
    "encodes": 0,
    "encode_memo_hits": 0,
}


def wire_stats() -> dict:
    """Parent-side dispatch counters (tests)."""
    return dict(_STATS)


def reset_wire_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def _encoded(func) -> tuple[str, bytes]:
    from repro.ir.codec import encode_function

    hit = _ENCODE_MEMO.get(func)
    if hit is not None:
        _STATS["encode_memo_hits"] += 1
        return hit
    _STATS["encodes"] += 1
    blob = encode_function(func)
    entry = (hashlib.sha256(blob).hexdigest(), blob)
    _ENCODE_MEMO[func] = entry
    return entry


def machine_content_digest(machine) -> str:
    """Digest of the machine's register model — the machine half of
    every content key, identical across processes."""
    return _machine_entry(machine)[0]


def _machine_entry(machine) -> tuple[str, bytes]:
    from repro.reporting import canonical_json
    from repro.service.protocol import machine_descriptor

    hit = _MACHINE_MEMO.get(machine)
    if hit is not None:
        return hit
    descriptor = canonical_json(machine_descriptor(machine))
    digest = hashlib.sha256(descriptor.encode()).hexdigest()
    entry = (digest, pickle.dumps(machine, pickle.HIGHEST_PROTOCOL))
    _MACHINE_MEMO[machine] = entry
    return entry


def _pickled(obj) -> tuple[str, bytes]:
    """Digest + bytes of a read-only payload object (allocator/options)."""
    try:
        hit = _PICKLE_MEMO.get(obj)
    except TypeError:  # unhashable/unweakrefable: just pickle it
        hit = None
    if hit is not None:
        return hit
    blob = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    entry = (hashlib.sha256(blob).hexdigest(), blob)
    try:
        _PICKLE_MEMO[obj] = entry
    except TypeError:
        pass
    return entry


def pack_job(payload) -> tuple:
    """One ``(func, machine, allocator, options)`` payload as a wire
    control tuple ``(WIRE_TAG, func_digest, machine_digest,
    alloc_digest, options_digest, {digest: blob})``.

    Raises :class:`TypeError` for any other payload shape.
    """
    from repro.ir.function import Function

    if not (isinstance(payload, tuple) and len(payload) == 4
            and isinstance(payload[0], Function)):
        raise TypeError(
            f"a wire job packs a (Function, machine, allocator, options) "
            f"tuple, got {type(payload).__name__}")
    func, machine, allocator, options = payload
    with phase("dispatch"):
        with phase("encode"):
            entries = (_encoded(func), _machine_entry(machine),
                       _pickled(allocator), _pickled(options))
    _STATS["jobs_packed"] += 1
    return (WIRE_TAG, *(digest for digest, _ in entries), dict(entries))


def is_wire_job(payload) -> bool:
    return (isinstance(payload, tuple) and len(payload) == 6
            and payload[0] == WIRE_TAG)


# -- worker side -------------------------------------------------------

#: func digest -> pristine decoded Function (never handed out directly;
#: jobs get clones because allocation rewrites the function in place).
_DECODE_CACHE: "OrderedDict[str, object]" = OrderedDict()
_DECODE_CACHE_MAX = 64
#: digest -> unpickled read-only payload object (machine/allocator/
#: options, shared across jobs exactly like the serial path).
_OBJECT_CACHE: "OrderedDict[str, object]" = OrderedDict()
_OBJECT_CACHE_MAX = 64
_decode_hits = 0
_decode_misses = 0


def decode_cache_info() -> dict:
    """Hit/miss counters of *this process's* decode cache (tests)."""
    return {"entries": len(_DECODE_CACHE), "hits": _decode_hits,
            "misses": _decode_misses}


def clear_decode_cache() -> None:
    global _decode_hits, _decode_misses
    _DECODE_CACHE.clear()
    _OBJECT_CACHE.clear()
    _decode_hits = _decode_misses = 0


def _fetch(digest: str, blobs: dict) -> bytes:
    blob = blobs.get(digest)
    if blob is None:
        raise CodecError(f"wire job is missing blob {digest[:16]}")
    return blob


def _decoded_function(digest: str, blobs: dict):
    global _decode_hits, _decode_misses
    from repro.ir.clone import clone_function

    pristine = _DECODE_CACHE.get(digest)
    if pristine is not None:
        _DECODE_CACHE.move_to_end(digest)
        _decode_hits += 1
        return clone_function(pristine)
    _decode_misses += 1
    from repro.ir.codec import decode_function

    with phase("dispatch"):
        with phase("decode"):
            decoded = decode_function(_fetch(digest, blobs))
    _DECODE_CACHE[digest] = decoded
    while len(_DECODE_CACHE) > _DECODE_CACHE_MAX:
        _DECODE_CACHE.popitem(last=False)
    return clone_function(decoded)


def _object_for(digest: str, blobs: dict):
    obj = _OBJECT_CACHE.get(digest)
    if obj is None:
        obj = pickle.loads(_fetch(digest, blobs))
        _OBJECT_CACHE[digest] = obj
        while len(_OBJECT_CACHE) > _OBJECT_CACHE_MAX:
            _OBJECT_CACHE.popitem(last=False)
    else:
        _OBJECT_CACHE.move_to_end(digest)
    return obj


def _checked(payload) -> tuple:
    if not is_wire_job(payload):
        raise CodecError(f"not a {WIRE_TAG} job: "
                         f"{type(payload).__name__}")
    return payload


def resolve_objects(payload):
    """A wire control tuple's ``(machine, allocator, options)``, without
    decoding its function."""
    (_tag, _func_digest, machine_digest, alloc_digest, options_digest,
     blobs) = _checked(payload)
    return (_object_for(machine_digest, blobs),
            _object_for(alloc_digest, blobs),
            _object_for(options_digest, blobs))


def job_function(payload):
    """A private copy of a wire control tuple's decoded function."""
    _tag, func_digest, *_digests, blobs = _checked(payload)
    return _decoded_function(func_digest, blobs)
