"""Digest-sharded routing tier: LDJSON front end over N backend shards.

The router speaks exactly the v2 service protocol — clients are
oblivious that a cluster, not a single server, is answering.  Each
``allocate`` line is content-addressed with the *same*
:func:`~repro.service.cache.request_fingerprint` the shards key their
caches on, and the digest picks the home shard (``digest % N``), so one
request's repeats always land on one shard and its local L1 cache does
the work; the shared cache-peer tier catches cross-shard lookups after
re-routes and hedges.  ``allocate_delta`` lines route by their *session
token* (``base``) instead — the token stays constant along an edit
chain, so a keystroke stream stays pinned to the shard holding its
retained sessions without the router ever parsing the edited body.  The
raw request line is forwarded byte-for-byte
(no re-encode) and the shard's response line is returned unchanged.

Three resilience mechanisms compose around that straight path:

* **re-route** — a forward that fails at the transport level (dead
  shard, reset, timeout) marks the shard in :class:`ShardHealth` and
  retries on the next shard of the ring; with the shared cache tier a
  re-routed repeat is still a cache hit;
* **hedged retries** — if the home shard has not answered within
  ``hedge_s``, the same line is issued to the next shard and the first
  *non-degraded* answer wins (a degraded answer is stashed and only
  used when nothing better arrives).  The loser is cancelled; if it
  completes anyway its shard may cache the result — which is safe and
  even useful, because shards never cache degraded results, so a
  degraded hedge loser can never poison any cache tier;
* **backpressure** — per-shard in-flight counts feed admission: when
  every available shard is past the soft watermark the router degrades
  the request one rung of the service ladder before forwarding (the
  response is patched to carry ``degraded: true`` and the original
  ``allocator``); past the hard limit it rejects outright, mirroring
  the scheduler's bounded-queue rejection.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
from collections import OrderedDict

from repro.cluster.health import ShardHandle, ShardHealth
from repro.cluster.shards import ClusterSupervisor
from repro.errors import ServiceError
from repro.ir.printer import print_module
from repro.reporting import canonical_json
from repro.service.cache import request_fingerprint
from repro.service.metrics import LatencyHistogram
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AllocationRequest,
    AllocationResponse,
)
from repro.service.scheduler import degrade_for, resolve_module
from repro.service.schema import allocation_payload, cluster_stats_payload
from repro.service.server import LINE_LIMIT, read_request_line

__all__ = ["ClusterMetrics", "ClusterRouter", "ClusterServer",
           "ClusterServerThread"]


class ClusterMetrics:
    """Router-side counters and latency; same shape discipline as
    :class:`~repro.service.metrics.ServiceMetrics`."""

    PHASES = ("total", "forward", "digest")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.latency = {phase: LatencyHistogram() for phase in self.PHASES}
        self.counters = {
            "requests_total": 0,
            "responses_ok": 0,
            "responses_error": 0,
            "rejected_total": 0,
            "degraded_total": 0,
            "routed_total": 0,
            "reroutes_total": 0,
            "hedges_started": 0,
            "hedge_wins_primary": 0,
            "hedge_wins_fallback": 0,
            "digest_cache_hits": 0,
            "digest_cache_misses": 0,
        }

    def inc(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self.counters[counter] += by

    def observe(self, phase: str, seconds: float) -> None:
        with self._lock:
            self.latency[phase].observe(seconds)

    @property
    def hedge_win_rate(self) -> float:
        with self._lock:
            started = self.counters["hedges_started"]
            wins = self.counters["hedge_wins_fallback"]
        return wins / started if started else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counters": dict(self.counters),
                "hedge_win_rate": round(
                    (self.counters["hedge_wins_fallback"]
                     / self.counters["hedges_started"])
                    if self.counters["hedges_started"] else 0.0, 4),
                "latency": {
                    phase: hist.snapshot()
                    for phase, hist in self.latency.items()
                },
            }


def _error_payload(request_id: str, message: str,
                   allocator: str = "") -> dict:
    return allocation_payload(
        AllocationResponse.error_response(request_id, message, allocator))


class ClusterRouter:
    """Routes allocate lines to shards; owns health and hedging policy.

    All mutation happens on one event loop; only the metrics and the
    digest memo (shared with executor threads) carry locks.
    """

    def __init__(
        self,
        shards: list[ShardHandle],
        supervisor: ClusterSupervisor | None = None,
        metrics: ClusterMetrics | None = None,
        hedge_s: float | None = 0.25,
        saturation: int = 8,
        forward_timeout_s: float = 120.0,
        connect_timeout_s: float = 5.0,
        supervise_interval_s: float = 0.5,
        digest_memo_size: int = 256,
    ):
        self.supervisor = supervisor
        self.metrics = metrics or ClusterMetrics()
        self.health = ShardHealth(shards, saturation=saturation)
        self.hedge_s = hedge_s
        self.forward_timeout_s = forward_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.supervise_interval_s = supervise_interval_s
        self._digest_memo: "OrderedDict[tuple, str]" = OrderedDict()
        self._digest_memo_size = max(1, digest_memo_size)
        self._digest_lock = threading.Lock()
        self._supervise_task: asyncio.Task | None = None

    # -- content addressing --------------------------------------------

    def _digest_for(self, request: AllocationRequest) -> str:
        """The request's cache key — identical to the shard's own.

        The memo key compacts the IR component to a sha256 of the raw
        request text (the memo used to hold the full text per entry, so
        a 256-entry memo over large modules pinned megabytes); the memo
        *value* remains the shard-identical ``request_fingerprint``, so
        forwarded hints are byte-for-byte unchanged.
        """
        options = request.options
        key = (
            hashlib.sha256(request.ir.encode()).hexdigest()
            if request.ir is not None
            else ("bench", request.bench),
            request.machine.regs,
            request.machine.has_paired_loads,
            request.allocator,
            options.verify,
            options.max_rounds,
            options.rematerialize,
            # None for the default policy — every pre-policy memo key
            # stays byte-for-byte the same tuple.
            None if options.policy.is_default() else options.policy.digest(),
        )
        with self._digest_lock:
            hit = self._digest_memo.get(key)
            if hit is not None:
                self._digest_memo.move_to_end(key)
                self.metrics.inc("digest_cache_hits")
                return hit
        self.metrics.inc("digest_cache_misses")
        normalized = print_module(resolve_module(request))
        machine = request.machine.build()
        digest = request_fingerprint(normalized, machine,
                                     request.allocator, options=options)
        with self._digest_lock:
            self._digest_memo[key] = digest
            self._digest_memo.move_to_end(key)
            while len(self._digest_memo) > self._digest_memo_size:
                self._digest_memo.popitem(last=False)
        return digest

    # -- forwarding ----------------------------------------------------

    async def _forward_line(self, shard: ShardHandle, line: bytes,
                            count: bool = True) -> dict:
        """One request line to one shard; transport failures raise."""
        self.health.begin(shard.index)
        writer = None
        started = time.perf_counter()
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(shard.host, shard.port),
                timeout=self.connect_timeout_s,
            )
            writer.write(line)
            await writer.drain()
            reply = await asyncio.wait_for(
                reader.readline(), timeout=self.forward_timeout_s)
            if not reply:
                raise ConnectionError("shard closed the connection "
                                      "mid-request")
            response = json.loads(reply)
            if not isinstance(response, dict):
                raise ValueError("shard reply is not a JSON object")
        except (OSError, ValueError, asyncio.TimeoutError) as err:
            self.health.record_failure(shard.index,
                                       f"{type(err).__name__}: {err}")
            raise
        finally:
            self.health.end(shard.index)
            if writer is not None:
                writer.close()
        self.health.record_success(shard.index)
        if count:
            self.metrics.inc("routed_total")
            self.metrics.observe("forward", time.perf_counter() - started)
        return response

    async def _hedged_forward(self, order: list, line: bytes) -> dict:
        """Forward with hedging + re-route; returns the winning reply.

        ``order`` is the availability-filtered shard ring, home first.
        The first transport failure with nothing else in flight starts
        the next shard immediately (re-route); a quiet home shard past
        ``hedge_s`` starts the next shard *speculatively* (hedge).  The
        first non-degraded ``ok`` reply wins; degraded or error replies
        are stashed and returned only when every attempt has finished.
        """
        remaining = list(order)
        tasks: dict[asyncio.Task, str] = {}
        stash: dict | None = None
        stash_role = ""
        last_error: BaseException | None = None
        hedged = False

        def launch(role: str) -> bool:
            if not remaining:
                return False
            shard = remaining.pop(0)
            task = asyncio.ensure_future(self._forward_line(shard, line))
            tasks[task] = role
            return True

        launch("primary")
        try:
            while tasks:
                timeout = (self.hedge_s
                           if not hedged and self.hedge_s is not None
                           and remaining else None)
                done, _ = await asyncio.wait(
                    tasks.keys(), timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED)
                if not done:
                    hedged = True
                    self.metrics.inc("hedges_started")
                    launch("fallback")
                    continue
                for task in done:
                    role = tasks.pop(task)
                    try:
                        reply = task.result()
                    except Exception as err:
                        last_error = err
                        # Re-route only when nothing else is in flight —
                        # an in-flight hedge may still win.
                        if not tasks and stash is None and remaining:
                            self.metrics.inc("reroutes_total")
                            launch(role)
                        continue
                    if reply.get("ok") and not reply.get("degraded"):
                        if hedged:
                            self.metrics.inc(
                                "hedge_wins_primary" if role == "primary"
                                else "hedge_wins_fallback")
                        return reply
                    # Degraded (or shard-level error) reply: keep the
                    # best seen, prefer ok over error, primary over
                    # fallback, but wait for anything still running.
                    if stash is None or (reply.get("ok")
                                         and not stash.get("ok")):
                        stash, stash_role = reply, role
        finally:
            for task in tasks:
                task.cancel()

        if stash is not None:
            if hedged:
                self.metrics.inc(
                    "hedge_wins_primary" if stash_role == "primary"
                    else "hedge_wins_fallback")
            return stash
        raise last_error if last_error is not None else ServiceError(
            "no shard accepted the request")

    # -- the allocate path ---------------------------------------------

    async def route(self, message: dict, raw_line: bytes) -> dict:
        """One ``allocate`` message -> one response payload."""
        started = time.perf_counter()
        self.metrics.inc("requests_total")
        request_id = str(message.get("id", ""))
        try:
            request = AllocationRequest.from_wire(message)
        except Exception as err:
            self.metrics.inc("responses_error")
            return _error_payload(request_id, str(err),
                                  str(message.get("allocator", "")))

        if self.health.rejecting():
            self.metrics.inc("rejected_total")
            self.metrics.inc("responses_error")
            return _error_payload(
                request_id,
                "cluster saturated: admission control rejected the request",
                request.allocator,
            )

        if request.base_digest:
            # Edit-chain affinity: the session token itself is the
            # routing key, so every keystroke of one stream keeps
            # landing on the shard holding its sessions (the shard
            # stores the advanced session back under the client's
            # token).  No parse, no digest memo, no cache hint — the
            # delta path is served from the session store.
            digest = request.base_digest
            rewired = dict(message)
        else:
            loop = asyncio.get_event_loop()
            t0 = time.perf_counter()
            try:
                digest = await loop.run_in_executor(
                    None, self._digest_for, request)
            except Exception as err:
                self.metrics.inc("responses_error")
                return _error_payload(request_id, str(err),
                                      request.allocator)
            self.metrics.observe("digest", time.perf_counter() - t0)

            # The digest IS the shard's cache key; forwarding it lets
            # the shard skip re-normalizing the module on its hit path
            # (router and shards are one trust domain — the digest was
            # computed with the shard's own fingerprint function).
            rewired = dict(message)
            rewired["fingerprint_hint"] = digest
        # Overload (all shards past the soft watermark): degrade one
        # rung at the router, exactly the scheduler's ladder.
        router_degraded = False
        if self.health.overloaded():
            effective = degrade_for(request.allocator,
                                    request.options.policy)
            if effective != request.allocator:
                router_degraded = True
                rewired["allocator"] = effective
        line = (canonical_json(rewired) + "\n").encode()

        order = self.health.route_order(digest)
        if not order:
            self.metrics.inc("responses_error")
            return _error_payload(request_id, "no shards available",
                                  request.allocator)
        try:
            reply = await self._hedged_forward(order, line)
        except Exception as err:
            self.metrics.inc("responses_error")
            return _error_payload(
                request_id,
                f"all shards failed: {type(err).__name__}: {err}",
                request.allocator,
            )

        if router_degraded:
            reply = dict(reply)
            if reply.get("cached") and (
                reply.get("allocator") == request.allocator
            ):
                # The hint still pointed at the *original* allocator's
                # entry and the shard had it — the cache absorbed the
                # overload, so the client gets the real answer.
                pass
            else:
                # The shard honestly served the downgraded allocator;
                # the client asked for the original, so the reply must
                # say both.
                reply["allocator"] = request.allocator
                reply["degraded"] = True
        if reply.get("degraded"):
            self.metrics.inc("degraded_total")
        self.metrics.inc("responses_ok" if reply.get("ok")
                         else "responses_error")
        self.metrics.observe("total", time.perf_counter() - started)
        return reply

    # -- control plane -------------------------------------------------

    async def _shard_stats(self, shard: ShardHandle) -> dict | None:
        """Best-effort stats probe of one shard."""
        line = (canonical_json({"type": "stats"}) + "\n").encode()
        try:
            return await self._forward_line(shard, line, count=False)
        except Exception:
            return None

    async def stats(self) -> dict:
        usable = [s for s in self.health.shards
                  if self.health.available(s.index)]
        probes = await asyncio.gather(
            *(self._shard_stats(s) for s in usable))
        per_shard = {str(s.index): probe
                     for s, probe in zip(usable, probes)}
        return cluster_stats_payload(
            router=self.metrics.snapshot(),
            shards=self.health.snapshot(),
            supervisor=(self.supervisor.snapshot()
                        if self.supervisor is not None else None),
            shard_stats=per_shard,
        )

    # -- supervision ---------------------------------------------------

    def start_supervision(self) -> None:
        """Start the periodic reap-and-respawn tick (needs a loop)."""
        if self.supervisor is None or self._supervise_task is not None:
            return
        self._supervise_task = asyncio.ensure_future(self._supervise())

    async def _supervise(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            await asyncio.sleep(self.supervise_interval_s)
            try:
                acted = await loop.run_in_executor(
                    None, self.supervisor.reap_and_respawn)
            except Exception:
                continue
            for index, ok in acted:
                if ok:
                    self.health.mark_up(index)
                else:
                    self.health.mark_down(index, "shard process died")

    def stop_supervision(self) -> None:
        if self._supervise_task is not None:
            self._supervise_task.cancel()
            self._supervise_task = None


class ClusterServer:
    """Asyncio LDJSON front end over one router (the service protocol)."""

    def __init__(self, router: ClusterRouter, host: str = "127.0.0.1",
                 port: int = 0):
        self.router = router
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()

    async def start(self) -> tuple:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=LINE_LIMIT)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self.router.start_supervision()
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        assert self._server is not None, "call start() first"
        await self._shutdown.wait()
        self.router.stop_supervision()
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                line = await read_request_line(reader, writer)
                if line is None:
                    break
                reply = await self._handle_line(line)
                writer.write((canonical_json(reply) + "\n").encode())
                await writer.drain()
                if reply.get("type") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _handle_line(self, line: bytes) -> dict:
        try:
            message = json.loads(line)
        except ValueError as err:
            return _error_payload("", f"malformed JSON: {err}")
        if not isinstance(message, dict):
            return _error_payload("", "request must be a JSON object")
        kind = message.get("type", "allocate")
        if kind == "ping":
            return {"type": "pong", "protocol": PROTOCOL_VERSION}
        if kind == "stats":
            return await self.router.stats()
        if kind == "shutdown":
            self.request_shutdown()
            return {"type": "shutdown", "protocol": PROTOCOL_VERSION,
                    "ok": True}
        if kind not in ("allocate", "allocate_delta"):
            return {"type": "error", "protocol": PROTOCOL_VERSION,
                    "error": f"unknown message type {kind!r}"}
        return await self.router.route(message, line)


class ClusterServerThread:
    """The router's TCP front end on a background thread (tests, CLI,
    benches) — the cluster twin of
    :class:`~repro.service.server.ServerThread`."""

    def __init__(self, router: ClusterRouter, host: str = "127.0.0.1",
                 port: int = 0):
        self.router = router
        self.server = ClusterServer(router, host, port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    def start(self) -> tuple:
        self._thread = threading.Thread(target=self._run,
                                        name="repro-cluster", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("cluster server failed to start within 10s")
        return self.server.host, self.server.port

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            await self.server.start()
            self._started.set()
            await self.server.serve_until_shutdown()

        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
