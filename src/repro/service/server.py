"""Line-delimited-JSON allocation server (TCP and stdio front ends).

Wire format: one JSON object per line, both directions.  Messages are
dispatched on their ``type`` field:

* ``allocate`` (default) — an :class:`AllocationRequest`; answered with
  an :class:`AllocationResponse` line once the scheduler finishes it.
* ``allocate_delta`` — the edit-stream variant (session token + new
  body); same request/response classes, served by the scheduler's
  session store instead of the content-addressed cache.
* ``ping`` — liveness probe, answered with ``{"type": "pong"}``.
* ``stats`` — scheduler/cache/metrics snapshot.
* ``shutdown`` — acknowledge, then stop the server (the final metrics
  snapshot is also dumped to the log stream on shutdown).

The TCP front end is a small asyncio loop: connections are cheap and
concurrent, while the actual allocation work happens on the scheduler's
worker (and, inside it, the pipeline's process pool), so a slow
allocation never blocks other clients' pings or stats probes.  Cache
hits go through the scheduler's queue in arrival order, like misses.
``serve_stdio`` is the same dispatcher over stdin/stdout for
subprocess-style embedding; it processes one line at a time.
:class:`ServerThread` runs the TCP server on a background thread — the
in-process harness the tests and the throughput bench drive.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from typing import IO

from repro.reporting import canonical_json
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AllocationRequest,
    AllocationResponse,
)
from repro.service.schema import allocation_payload, stats_payload
from repro.service.scheduler import Scheduler

__all__ = ["AllocationServer", "ServerThread", "serve_stdio",
           "LINE_LIMIT", "read_request_line"]

#: Longest request line the TCP front ends accept (the asyncio stream
#: buffer limit, passed explicitly so the error message is exact).
LINE_LIMIT = 2 ** 16
#: how long a rejected connection's unread input is drained before close
_DISCARD_S = 2.0


def _dispatch_control(message: dict, scheduler: Scheduler) -> dict | None:
    """Handle non-allocate message types; None means 'allocate'."""
    kind = message.get("type", "allocate")
    if kind in ("allocate", "allocate_delta"):
        return None
    if kind == "ping":
        return {"type": "pong", "protocol": PROTOCOL_VERSION}
    if kind == "stats":
        cache = (scheduler.cache.snapshot()
                 if scheduler.cache is not None else None)
        return stats_payload(scheduler.queue_depth,
                             scheduler.metrics.snapshot(), cache)
    if kind == "shutdown":
        return {"type": "shutdown", "protocol": PROTOCOL_VERSION, "ok": True}
    return {"type": "error", "protocol": PROTOCOL_VERSION,
            "error": f"unknown message type {kind!r}"}


def _error_line(message: str, request_id: str = "") -> dict:
    return allocation_payload(
        AllocationResponse.error_response(request_id, message))


async def read_request_line(reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> bytes | None:
    """The next request line, or None when the connection must close.

    A line longer than :data:`LINE_LIMIT` makes ``readline`` raise
    ``ValueError``; its tail is still unread, so the stream cannot be
    resynchronized.  The client gets one error line naming the limit and
    the connection is closed — the server keeps serving everyone else.
    """
    try:
        line = await reader.readline()
    except ValueError:
        reply = _error_line(f"request line exceeds the {LINE_LIMIT}-byte "
                            f"line limit; closing the connection")
        writer.write((canonical_json(reply) + "\n").encode())
        await writer.drain()
        # Closing with the line's tail still unread would reset the
        # connection and could discard the reply in flight: end our side
        # after the reply, then swallow the tail (briefly) first.
        if writer.can_write_eof():
            writer.write_eof()
        with contextlib.suppress(asyncio.TimeoutError, ConnectionError):
            await asyncio.wait_for(_discard_input(reader), _DISCARD_S)
        return None
    return line or None


async def _discard_input(reader: asyncio.StreamReader) -> None:
    while await reader.read(LINE_LIMIT):
        pass


class AllocationServer:
    """Asyncio TCP front end over one scheduler."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 0):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=LINE_LIMIT
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        assert self._server is not None, "call start() first"
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        # Idle keep-alive connections are parked in readline(); cancel
        # them so the loop can close without destroying pending tasks.
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
            return _error_line(f"malformed JSON: {err}")
        if not isinstance(message, dict):
            return _error_line("request must be a JSON object")
        control = _dispatch_control(message, self.scheduler)
        if control is not None:
            if control.get("type") == "shutdown":
                self.request_shutdown()
            return control
        try:
            request = AllocationRequest.from_wire(message)
        except Exception as err:
            return _error_line(str(err), str(message.get("id", "")))
        future = self.scheduler.submit(request)
        response = await asyncio.wrap_future(future)
        return allocation_payload(response)


def serve_stdio(scheduler: Scheduler, in_stream: IO[str],
                out_stream: IO[str]) -> None:
    """The same protocol over text streams, one line at a time."""
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
            if not isinstance(message, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as err:
            reply = _error_line(f"malformed JSON: {err}")
        else:
            control = _dispatch_control(message, scheduler)
            if control is not None:
                reply = control
            else:
                try:
                    request = AllocationRequest.from_wire(message)
                except Exception as err:
                    reply = _error_line(str(err),
                                        str(message.get("id", "")))
                else:
                    reply = allocation_payload(
                        scheduler.submit(request).result())
        print(canonical_json(reply), file=out_stream, flush=True)
        if reply.get("type") == "shutdown":
            break


class ServerThread:
    """A TCP server on a background thread (tests, benches, CLI serve)."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 0):
        self.scheduler = scheduler
        self.server = AllocationServer(scheduler, host, port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    def start(self) -> tuple[str, int]:
        """Start scheduler + server; returns the bound (host, port)."""
        self.scheduler.start()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-server", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
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
        """Block until the server shuts down (a ``shutdown`` request)."""
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.scheduler.stop()
