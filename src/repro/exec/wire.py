"""Digest-deduped wire encoding for worker-pool dispatch.

Pickling one ``(func, machine, allocator, options)`` tuple per job
would pickle every function of an eight-allocator sweep eight times and
make every worker unpickle a fresh object graph per job.  This module
replaces the per-job payload with a tiny control tuple of **content
digests**; the bytes behind them — the
function's :mod:`repro.ir.codec` blob plus the pickled machine,
allocator, and options — ship **once per batch per distinct digest**
through one ``multiprocessing.shared_memory`` segment.  Workers decode
each function digest once into a bounded LRU beside the round-0
analysis cache and hand every job a private
:func:`~repro.ir.clone.clone_function` copy (allocation mutates in
place), which is byte-identical to an unpickled copy because the codec
round-trips ``print_function`` text exactly.  Machines, allocators, and
options are read-only across jobs (the serial path already shares one
instance for a whole module sweep), so workers cache them by digest and
unpickle once per batch.  This is the only dispatch path; payload
shapes the codec does not cover pass through unchanged (pickled by the
pool), and the tests check decoded functions against the shipped
originals.

Segment layout and lifecycle: the parent writes ``u32 index length +
pickled {digest: (offset, length)} index + concatenated blobs``,
owns the segment for the whole batch (retries re-send the same control
tuples), and closes+unlinks it in a ``finally`` once every job
resolved.  Workers attach untracked (the parent owns the segment; a
worker death must never unlink it), parse the index once, and keep the
two most recent segments mapped so the per-job cost is a dict lookup.
When shared memory is unavailable (sandboxed ``/dev/shm``), the blob
table rides inline in each control message instead — still
deduplicated by the worker-side caches.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import weakref
from collections import OrderedDict

from repro.errors import CodecError
from repro.profiling import phase

__all__ = [
    "WIRE_TAG",
    "Shipment",
    "pack_batch",
    "is_wire_job",
    "resolve_job",
    "machine_content_digest",
    "wire_stats",
    "reset_wire_stats",
    "decode_cache_info",
    "clear_decode_cache",
]

#: First element of every codec-wire control tuple; versioned so a
#: worker from a future wire format rejects instead of misparsing.
WIRE_TAG = "repro-wire-v2"

_INDEX_LEN = struct.Struct(">I")


class Shipment:
    """Owner of one batch's shared-memory segment (parent side)."""

    def __init__(self, shm=None) -> None:
        self.shm = shm

    def cleanup(self) -> None:
        if self.shm is None:
            return
        try:
            self.shm.close()
            self.shm.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
        self.shm = None


#: parent-side per-object memos, keyed by identity (WeakKey) so an
#: 8-allocator sweep over one prepared module encodes each function
#: (and pickles each machine/allocator/options object) once, not once
#: per batch.
_ENCODE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_MACHINE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_PICKLE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_STATS = {
    "batches_packed": 0,
    "jobs_packed": 0,
    "encodes": 0,
    "encode_memo_hits": 0,
    "blobs_shipped": 0,
    "bytes_shipped": 0,
    "shm_segments": 0,
    "inline_batches": 0,
}


def wire_stats() -> dict:
    """Parent-side dispatch counters (tests and the dispatch bench)."""
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


def _eligible(payloads) -> bool:
    from repro.ir.function import Function

    return bool(payloads) and all(
        isinstance(p, tuple) and len(p) == 4
        and isinstance(p[0], Function) for p in payloads
    )


def pack_batch(payloads) -> tuple[list, Shipment | None]:
    """Transform alloc-task payloads for the wire; identity for payload
    shapes the codec path does not recognize.

    Returns the control payloads plus the :class:`Shipment` the caller
    must ``cleanup()`` after the batch fully resolves (retried jobs
    re-read the same segment).
    """
    if not _eligible(payloads):
        return list(payloads), None
    with phase("dispatch"):
        with phase("encode"):
            blobs: OrderedDict[str, bytes] = OrderedDict()
            refs = []
            for func, machine, allocator, options in payloads:
                func_digest, func_blob = _encoded(func)
                machine_digest, machine_blob = _machine_entry(machine)
                alloc_digest, alloc_blob = _pickled(allocator)
                options_digest, options_blob = _pickled(options)
                blobs.setdefault(func_digest, func_blob)
                blobs.setdefault(machine_digest, machine_blob)
                blobs.setdefault(alloc_digest, alloc_blob)
                blobs.setdefault(options_digest, options_blob)
                refs.append((func_digest, machine_digest, alloc_digest,
                             options_digest))
        with phase("shm"):
            shipment = _ship(blobs)
        inline = None if shipment.shm is not None else dict(blobs)
        shm_name = shipment.shm.name if shipment.shm is not None else None
        jobs = [(WIRE_TAG, shm_name, *digests, inline) for digests in refs]
    _STATS["batches_packed"] += 1
    _STATS["jobs_packed"] += len(jobs)
    _STATS["blobs_shipped"] += len(blobs)
    _STATS["bytes_shipped"] += sum(len(b) for b in blobs.values())
    return jobs, shipment


def _ship(blobs: "OrderedDict[str, bytes]") -> Shipment:
    """One segment holding the digest index plus every distinct blob;
    inline fallback when shared memory is unavailable."""
    index: dict[str, tuple[int, int]] = {}
    offset = 0
    for digest, blob in blobs.items():
        index[digest] = (offset, len(blob))
        offset += len(blob)
    index_blob = pickle.dumps(index, pickle.HIGHEST_PROTOCOL)
    base = _INDEX_LEN.size + len(index_blob)
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=base + offset)
    except (ImportError, OSError, PermissionError, ValueError):
        _STATS["inline_batches"] += 1
        return Shipment(None)
    shm.buf[:_INDEX_LEN.size] = _INDEX_LEN.pack(len(index_blob))
    shm.buf[_INDEX_LEN.size:base] = index_blob
    for digest, blob in blobs.items():
        start, length = index[digest]
        shm.buf[base + start:base + start + length] = blob
    _STATS["shm_segments"] += 1
    return Shipment(shm)


def is_wire_job(payload) -> bool:
    return (isinstance(payload, tuple) and len(payload) == 7
            and payload[0] == WIRE_TAG)


# -- worker side -------------------------------------------------------

#: segment name -> (SharedMemory, {digest: (offset, length)}, base).
#: The two most recent batches stay mapped; eviction just unmaps (the
#: parent owns unlinking).
_SEGMENTS: "OrderedDict[str, tuple]" = OrderedDict()
_SEGMENTS_MAX = 2
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
    for shm, _index, _base in _SEGMENTS.values():
        try:
            shm.close()
        except OSError:  # pragma: no cover
            pass
    _SEGMENTS.clear()
    _DECODE_CACHE.clear()
    _OBJECT_CACHE.clear()
    _decode_hits = _decode_misses = 0


def _attach(name: str):
    """Attach to the parent's segment without resource tracking.

    The parent owns the segment; a worker must never let *its* resource
    tracker adopt it (a tracked attach unlinks the segment when the
    worker exits, or double-unregisters under fork's shared tracker).
    Python 3.13+ has ``track=False``; older versions get the register
    call suppressed for the duration of the attach (workers are
    single-threaded, so the swap cannot race).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _segment(name: str):
    entry = _SEGMENTS.get(name)
    if entry is not None:
        _SEGMENTS.move_to_end(name)
        return entry
    try:
        shm = _attach(name)
    except (OSError, ValueError) as err:
        raise CodecError(f"cannot attach dispatch segment {name}: "
                         f"{err}") from err
    try:
        (index_len,) = _INDEX_LEN.unpack_from(shm.buf, 0)
        base = _INDEX_LEN.size + index_len
        index = pickle.loads(bytes(shm.buf[_INDEX_LEN.size:base]))
        if not isinstance(index, dict):
            raise CodecError("dispatch segment index is not a mapping")
    except (struct.error, pickle.UnpicklingError, EOFError,
            ValueError) as err:
        shm.close()
        raise CodecError(f"corrupt dispatch segment index: "
                         f"{err}") from err
    except CodecError:
        shm.close()
        raise
    entry = (shm, index, base)
    _SEGMENTS[name] = entry
    while len(_SEGMENTS) > _SEGMENTS_MAX:
        _name, (old, _idx, _b) = _SEGMENTS.popitem(last=False)
        try:
            old.close()
        except OSError:  # pragma: no cover
            pass
    return entry


def _fetch(shm_name, digest: str, inline) -> bytes:
    if inline is not None:
        blob = inline.get(digest)
        if blob is None:
            raise CodecError(f"inline wire job is missing blob "
                             f"{digest[:16]}")
        return blob
    if shm_name is None:
        raise CodecError("wire job carries neither a shared-memory "
                         "segment nor inline blobs")
    shm, index, base = _segment(shm_name)
    ref = index.get(digest)
    if ref is None:
        raise CodecError(f"dispatch segment {shm_name} has no blob "
                         f"{digest[:16]}")
    offset, length = ref
    if base + offset + length > shm.size:
        raise CodecError(f"dispatch reference {ref} overruns the "
                         f"{shm.size}-byte segment")
    return bytes(shm.buf[base + offset:base + offset + length])


def _decoded_function(shm_name, digest: str, inline):
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
            decoded = decode_function(_fetch(shm_name, digest, inline))
    _DECODE_CACHE[digest] = decoded
    while len(_DECODE_CACHE) > _DECODE_CACHE_MAX:
        _DECODE_CACHE.popitem(last=False)
    return clone_function(decoded)


def _object_for(shm_name, digest: str, inline):
    obj = _OBJECT_CACHE.get(digest)
    if obj is None:
        obj = pickle.loads(_fetch(shm_name, digest, inline))
        _OBJECT_CACHE[digest] = obj
        while len(_OBJECT_CACHE) > _OBJECT_CACHE_MAX:
            _OBJECT_CACHE.popitem(last=False)
    else:
        _OBJECT_CACHE.move_to_end(digest)
    return obj


def resolve_job(payload):
    """A wire control tuple back into ``(func, machine, allocator,
    options)`` plus the content digests the round-0 cache keys on."""
    (_tag, shm_name, func_digest, machine_digest, alloc_digest,
     options_digest, inline) = payload
    func = _decoded_function(shm_name, func_digest, inline)
    machine = _object_for(shm_name, machine_digest, inline)
    allocator = _object_for(shm_name, alloc_digest, inline)
    options = _object_for(shm_name, options_digest, inline)
    return (func, machine, allocator, options,
            func_digest, machine_digest)
