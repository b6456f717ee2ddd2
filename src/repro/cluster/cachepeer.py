"""TCP cache-peer protocol: the shared result-cache tier of a cluster.

One :class:`CachePeerServer` holds the authoritative shared store (an
ordinary :class:`~repro.service.cache.ResultCache`, so it gets the LRU
bound and may itself sit on the disk backend for persistence).  Every
shard's scheduler talks to it through a :class:`PeerCacheBackend`
plugged into its local ``ResultCache`` — local memory is the hot L1,
the peer is the shared L2, so an entry computed by any shard is a hit
for every other shard.

Wire format: LDJSON, one op per line, one reply line per op::

    {"op": "get",  "key": "<sha256>"}
    -> {"ok": true, "found": true, "entry": {<response wire form>}}
    -> {"ok": true, "found": false}
    {"op": "put",  "key": "<sha256>", "entry": {...}}
    -> {"ok": true}
    {"op": "ping"}   -> {"ok": true, "op": "pong"}
    {"op": "stats"}  -> {"ok": true, "stats": {...}}

Entries cross the wire in the response's canonical wire form and are
validated on the way in (protocol version, ``ok``) just like the disk
layer, so a stale or torn entry is a miss, never a crash; a shard also
re-seals every entry it is served and checks it was filed under the
key it asked for (:func:`~repro.service.cache.entry_is_intact`).  The client
side degrades the same way: any socket or decode error is a miss, and a
short breaker (bounded consecutive failures -> cooldown with
exponential backoff, the same idiom as the worker pool's retry policy)
keeps a dead peer from adding a connect timeout to every request.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time

from repro.reporting import canonical_json
from repro.service.cache import CacheBackend, ResultCache, entry_is_intact
from repro.service.protocol import PROTOCOL_VERSION, AllocationResponse

__all__ = ["CachePeerServer", "PeerCacheBackend", "parse_hostport"]


def parse_hostport(spec: str, default_host: str = "127.0.0.1") -> tuple:
    """``"host:port"`` (or bare ``"port"``) -> ``(host, port)``."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        host = default_host
    try:
        return (host or default_host), int(port)
    except ValueError:
        raise ValueError(f"bad host:port spec {spec!r}") from None


class _PeerHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while True:
            try:
                line = self.rfile.readline()
            except OSError:
                return
            if not line:
                return
            reply = self.server.owner.handle_line(line)
            try:
                self.wfile.write((canonical_json(reply) + "\n").encode())
            except OSError:
                return


class _PeerTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class CachePeerServer:
    """The shared cache tier: a threaded LDJSON TCP server over one store."""

    def __init__(self, store: ResultCache | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.store = store if store is not None else ResultCache(
            max_entries=4096)
        self.host = host
        self.port = port
        self._lock = threading.Lock()  # ResultCache is not thread-safe
        self._server: _PeerTCPServer | None = None
        self._thread: threading.Thread | None = None
        self.counters = {
            "gets": 0,
            "get_hits": 0,
            "puts": 0,
            "bad_ops": 0,
        }

    # -- protocol ------------------------------------------------------

    def handle_line(self, line: bytes) -> dict:
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError("op must be a JSON object")
        except ValueError as err:
            with self._lock:
                self.counters["bad_ops"] += 1
            return {"ok": False, "error": f"malformed op: {err}"}
        op = message.get("op")
        if op == "get":
            return self._op_get(message)
        if op == "put":
            return self._op_put(message)
        if op == "ping":
            return {"ok": True, "op": "pong", "protocol": PROTOCOL_VERSION}
        if op == "stats":
            return {"ok": True, "stats": self.snapshot()}
        with self._lock:
            self.counters["bad_ops"] += 1
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _op_get(self, message: dict) -> dict:
        key = message.get("key")
        if not isinstance(key, str) or not key:
            return {"ok": False, "error": "get needs a string 'key'"}
        with self._lock:
            self.counters["gets"] += 1
            entry = self.store.get(key)
            if entry is None:
                return {"ok": True, "found": False}
            self.counters["get_hits"] += 1
            return {"ok": True, "found": True, "entry": entry.to_wire()}

    def _op_put(self, message: dict) -> dict:
        key = message.get("key")
        if not isinstance(key, str) or not key:
            return {"ok": False, "error": "put needs a string 'key'"}
        try:
            entry = AllocationResponse.from_wire(message.get("entry"))
        except Exception as err:
            return {"ok": False, "error": f"bad entry: {err}"}
        if entry.protocol != PROTOCOL_VERSION or not entry.ok:
            return {"ok": False, "error": "entry failed validation"}
        if entry.degraded:
            # Degraded results never enter any cache tier (the scheduler
            # enforces the same rule locally); refusing here keeps a
            # misbehaving peer from poisoning every shard.
            return {"ok": False, "error": "degraded entries are not cached"}
        with self._lock:
            self.counters["puts"] += 1
            self.store.put(key, entry)
        return {"ok": True}

    # -- lifecycle -----------------------------------------------------

    def start(self) -> tuple:
        """Bind + serve on a daemon thread; returns the bound address."""
        self._server = _PeerTCPServer((self.host, self.port), _PeerHandler)
        self._server.owner = self
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-cache-peer", daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "host": self.host,
                "port": self.port,
                "counters": dict(self.counters),
                "store": self.store.snapshot(),
            }


class PeerCacheBackend(CacheBackend):
    """Cache backend that proxies get/put to a :class:`CachePeerServer`.

    One short-lived connection per op keeps it trivially thread-safe,
    mirroring :class:`~repro.service.client.ServiceClient`.  After
    ``max_failures`` consecutive errors the backend trips open and every
    op is an instant miss until the cooldown (doubling per trip, capped)
    elapses — a dead peer must not tax the shards that outlived it.
    """

    name = "peer"

    def __init__(self, host: str, port: int, timeout: float = 2.0,
                 max_failures: int = 3, cooldown_s: float = 1.0,
                 max_cooldown_s: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_failures = max_failures
        self.cooldown_s = cooldown_s
        self.max_cooldown_s = max_cooldown_s
        self.gets = 0
        self.hits = 0
        self.puts = 0
        self.errors = 0
        self.integrity_failures = 0
        self.trips = 0
        self._consecutive = 0
        self._open_until = 0.0
        self._lock = threading.Lock()

    # -- breaker -------------------------------------------------------

    def _tripped(self) -> bool:
        with self._lock:
            return time.monotonic() < self._open_until

    def _record(self, ok: bool) -> None:
        with self._lock:
            if ok:
                self._consecutive = 0
                return
            self.errors += 1
            self._consecutive += 1
            if self._consecutive >= self.max_failures:
                backoff = min(
                    self.cooldown_s * (2 ** self.trips),
                    self.max_cooldown_s,
                )
                self._open_until = time.monotonic() + backoff
                self.trips += 1
                self._consecutive = 0

    def _call(self, message: dict) -> dict | None:
        if self._tripped():
            return None
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as sock:
                sock.sendall((canonical_json(message) + "\n").encode())
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
                    if chunk.endswith(b"\n"):
                        break
            reply = json.loads(b"".join(chunks))
            if not isinstance(reply, dict):
                raise ValueError("reply must be a JSON object")
        except (OSError, ValueError):
            self._record(ok=False)
            return None
        self._record(ok=True)
        return reply

    # -- CacheBackend --------------------------------------------------

    def get(self, key: str) -> AllocationResponse | None:
        self.gets += 1
        reply = self._call({"op": "get", "key": key})
        if not reply or not reply.get("ok") or not reply.get("found"):
            return None
        try:
            entry = AllocationResponse.from_wire(reply.get("entry"))
        except Exception:
            self._record(ok=False)
            return None
        if entry.protocol != PROTOCOL_VERSION or not entry.ok:
            return None
        if not entry_is_intact(key, entry):
            self.integrity_failures += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: str, entry: AllocationResponse) -> None:
        self.puts += 1
        self._call({"op": "put", "key": key, "entry": entry.to_wire()})

    def snapshot(self) -> dict:
        with self._lock:
            tripped = time.monotonic() < self._open_until
        return {
            "backend": self.name,
            "host": self.host,
            "port": self.port,
            "gets": self.gets,
            "hits": self.hits,
            "puts": self.puts,
            "errors": self.errors,
            "integrity_failures": self.integrity_failures,
            "trips": self.trips,
            "tripped": tripped,
        }
