"""Content-addressed allocation cache with LRU bounds and a disk layer.

The key of an entry is a fingerprint of *what determines the result*:
the normalized IR text (parse -> print round-trip, so formatting and
comment noise never split the cache), the machine's full register model,
the allocator name, and the result-relevant options
(:func:`result_options`).  Two requests that would
allocate identically therefore share one entry — including a ``bench``
request and an ``ir`` request carrying the same module text.

Entries store the response with per-request metadata stripped
(:meth:`AllocationResponse.for_cache`), so a hit can be re-addressed to
any request id.  The in-memory layer is a bounded LRU; behind it sits an
optional :class:`DiskCacheBackend` under ``~/.cache/repro`` (override
with ``disk_dir=``, or ``AllocationOptions.cache_dir`` — which
``from_env`` fills from ``$REPRO_CACHE_DIR`` at the serve entry point),
consulted only on a memory miss and written through on every store, so
entries persist across server restarts.

All disk I/O failures degrade to cache misses — the cache must never
take the service down — and so does a disk entry that fails its
integrity check (:func:`entry_is_intact`), counted as
``integrity_failures`` in ``repro stats``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

from repro.regalloc.base import AllocationOptions
from repro.reporting import canonical_json
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AllocationRequest,
    AllocationResponse,
    machine_descriptor,
)
from repro.target.machine import TargetMachine

__all__ = [
    "ResultCache",
    "DiskCacheBackend",
    "request_fingerprint",
    "request_source_key",
    "result_options",
    "default_cache_dir",
    "entry_is_intact",
]


def result_options(options: AllocationOptions) -> dict:
    """The option fields that enter a cache key, by wire name.

    Only *result-relevant* options count: ``max_rounds`` and
    ``rematerialize`` change the allocation and ``verify`` whether it is
    checked; execution policy (``jobs``, deadlines, ``cache_dir``) is
    result-neutral by construction and deliberately excluded — a cached
    entry must be valid whatever machinery computed it.
    """
    return {
        "verify": options.verify,
        "max_rounds": options.max_rounds,
        "rematerialize": options.rematerialize,
    }


def request_fingerprint(normalized_ir: str, machine: TargetMachine,
                        allocator: str,
                        options: AllocationOptions | None = None) -> str:
    """The content address of one allocation request.

    ``options`` (default: the defaults) contributes its
    :func:`result_options`.
    """
    if options is None:
        options = AllocationOptions()
    fields = {
        "protocol": PROTOCOL_VERSION,
        "ir": normalized_ir,
        "machine": machine_descriptor(machine),
        "allocator": allocator,
        **result_options(options),
    }
    payload = canonical_json(fields)
    return hashlib.sha256(payload.encode()).hexdigest()


def request_source_key(request: AllocationRequest) -> str:
    """A digest of an allocate request as the client sent it.

    It covers what :func:`request_fingerprint` covers, with the raw
    ``ir`` text or ``bench`` name in place of the normalized module
    (tagged by kind, so IR text never aliases a benchmark name) and the
    machine spec in place of the built machine.  Equal keys therefore
    always give equal fingerprints, which lets the scheduler map one to
    the other without parsing; unequal keys may still share one (IR
    that differs only in formatting).
    """
    if request.ir is not None:
        kind, source = "ir", request.ir
    else:
        kind, source = "bench", request.bench
    fields = {
        "kind": kind,
        "source": source,
        "machine": request.machine.to_wire(),
        "allocator": request.allocator,
        **result_options(request.options),
    }
    payload = canonical_json(fields)
    return hashlib.sha256(payload.encode()).hexdigest()


def default_cache_dir(options: AllocationOptions | None = None) -> Path:
    """Disk-cache directory: ``options.cache_dir``, else ``~/.cache/repro``.

    This function is deliberately *pure* with respect to the
    environment: ``$REPRO_CACHE_DIR`` is folded into ``options`` by
    :meth:`AllocationOptions.from_env` at the composition roots (the
    ``serve`` CLIs), never consulted here.  The cache layer reading the
    environment behind the options surface was a bug — an options value
    constructed without ``from_env`` silently picked up the variable.
    """
    if options is not None and options.cache_dir:
        return Path(options.cache_dir).expanduser()
    return Path("~/.cache/repro").expanduser()


def entry_is_intact(key: str, entry: AllocationResponse) -> bool:
    """Whether a backend entry is what it claims to be.

    A well-formed entry can still be wrong: a bit flip inside ``code``
    or a file copied under another key parses fine.  Re-sealing a copy
    must reproduce the stored ``result_digest``, and a non-empty stored
    ``fingerprint`` must equal the key it was found under.
    """
    if entry.fingerprint and entry.fingerprint != key:
        return False
    return replace(entry).seal().result_digest == entry.result_digest


class DiskCacheBackend:
    """One JSON file per entry under ``root`` (atomic replace writes).

    ``get``/``put`` never raise: a broken disk is a cache miss, not a
    service outage.  Reads verify each entry with
    :func:`entry_is_intact` and count rejects in ``integrity_failures``.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root).expanduser()
        self.hits = 0
        self.puts = 0
        self.errors = 0
        self.integrity_failures = 0

    def path_for(self, key: str) -> Path:
        # Shard by prefix so a long-lived cache dir stays listable.
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> AllocationResponse | None:
        try:
            path = self.path_for(key)
            if not path.is_file():
                return None
            wire = json.loads(path.read_text())
            entry = AllocationResponse.from_wire(wire)
            if entry.protocol != PROTOCOL_VERSION or not entry.ok:
                return None
            if not entry_is_intact(key, entry):
                self.integrity_failures += 1
                return None
            self.hits += 1
            return entry
        except (OSError, ValueError):
            self.errors += 1
            return None

    def put(self, key: str, entry: AllocationResponse) -> None:
        # Unique per-writer temp name: two ``repro serve`` processes can
        # share ``~/.cache/repro``, and two writers storing the same
        # entry through a fixed ``<key>.tmp`` could interleave
        # write/replace and publish a torn file.  mkstemp keeps the temp
        # on the same filesystem so os.replace stays atomic.
        try:
            path = self.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent,
                                       prefix=f".{key[:8]}-",
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(entry.to_json() + "\n")
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
            self.puts += 1
        except OSError:
            self.errors += 1

    def snapshot(self) -> dict:
        return {
            "backend": "disk",
            "root": str(self.root),
            "hits": self.hits,
            "puts": self.puts,
            "errors": self.errors,
            "integrity_failures": self.integrity_failures,
        }


class ResultCache:
    """Bounded LRU of allocation responses over an optional disk layer."""

    def __init__(self, max_entries: int = 256,
                 disk_dir: Path | str | None = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.disk = (DiskCacheBackend(disk_dir) if disk_dir is not None
                     else None)
        self._entries: "OrderedDict[str, AllocationResponse]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def disk_dir(self) -> Path | None:
        return self.disk.root if self.disk is not None else None

    @property
    def disk_hits(self) -> int:
        return self.disk.hits if self.disk is not None else 0

    @property
    def disk_errors(self) -> int:
        return self.disk.errors if self.disk is not None else 0

    # -- lookup --------------------------------------------------------

    def get(self, key: str) -> AllocationResponse | None:
        """The cached response for ``key`` (shared copy), or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return replace(entry)
        if self.disk is not None:
            entry = self.disk.get(key)
        if entry is not None:
            self.hits += 1
            self._remember(key, entry)
            return replace(entry)
        self.misses += 1
        return None

    def put(self, key: str, response: AllocationResponse) -> None:
        """Store ``response`` under ``key`` (metadata stripped)."""
        entry = response.for_cache()
        self._remember(key, entry)
        if self.disk is not None:
            self.disk.put(key, entry)

    def _remember(self, key: str, entry: AllocationResponse) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- introspection -------------------------------------------------

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 4),
            "disk_hits": self.disk_hits,
            "disk_errors": self.disk_errors,
            "integrity_failures": (self.disk.integrity_failures
                                   if self.disk is not None else 0),
            "evictions": self.evictions,
            "disk_dir": str(self.disk_dir) if self.disk_dir else None,
            "backend": (self.disk.snapshot()
                        if self.disk is not None else None),
        }
