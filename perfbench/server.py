"""A ``repro serve`` subprocess and a persistent-connection client."""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

from common import REQUEST_LINE_LIMIT, ROOT, clean_env

LOG_DIR = Path(__file__).resolve().parent / ".out"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


class RequestTooLarge(Exception):
    """The line would exceed the server's readline limit; not sent."""


class Connection:
    """One keep-alive LDJSON connection; one request in flight at a time."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def request(self, message: dict) -> dict:
        line = (json.dumps(message, separators=(",", ":")) + "\n").encode()
        if len(line) > REQUEST_LINE_LIMIT:
            raise RequestTooLarge(f"{len(line)} bytes")
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """``repro serve --jobs 2`` with an in-memory cache only.

    ``--no-disk-cache`` keeps each run cold: the default on-disk cache
    would turn a later run's misses into hits.
    """

    def __init__(self, jobs: int = 2) -> None:
        self.jobs = jobs
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._log = None

    def start(self) -> None:
        LOG_DIR.mkdir(exist_ok=True)
        self._log = open(LOG_DIR / "server.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(self.jobs), "--no-disk-cache"],
            cwd=ROOT, env=clean_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True)
        self.port = self._await_port()
        conn = self.connect()
        try:
            if conn.request({"type": "ping"}).get("type") != "pong":
                raise RuntimeError("server did not answer ping")
        finally:
            conn.close()

    def _await_port(self) -> int:
        deadline = perf_counter() + START_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while perf_counter() < deadline:
                if not sel.select(timeout=deadline - perf_counter()):
                    break
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("repro service listening on"):
                    return int(line.rsplit(":", 1)[1])
        raise RuntimeError("server did not start; see "
                           f"{LOG_DIR / 'server.log'}")

    def connect(self) -> Connection:
        return Connection(self.port)

    def stats(self) -> dict:
        conn = self.connect()
        try:
            return conn.request({"type": "stats"})
        finally:
            conn.close()

    def pids(self, stats: dict) -> list[int]:
        """The server process plus its live pool workers."""
        workers = stats["metrics"].get("worker_pool", {}).get("per_worker",
                                                              [])
        return [self.proc.pid, *(w["pid"] for w in workers
                                 if w.get("alive") and w.get("pid"))]

    def stop(self) -> None:
        """Ask for shutdown, then wait until the whole process group is
        gone: the server, its pool workers and the resource tracker its
        shared-memory dispatch starts, which outlives the server briefly."""
        if self.proc is None:
            return
        group = self.proc.pid
        try:
            if self.proc.poll() is None:
                try:
                    conn = self.connect()
                    try:
                        conn.request({"type": "shutdown"})
                    finally:
                        conn.close()
                except (OSError, ValueError):
                    pass
                try:
                    self.proc.communicate(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.communicate(timeout=30)
            if not _group_ended(group, STOP_TIMEOUT_S):
                _signal_group(group, signal.SIGKILL)
                if not _group_ended(group, STOP_TIMEOUT_S):
                    raise RuntimeError(f"server process group {group} "
                                       f"did not end")
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._log.close()
            self.proc = None


def _signal_group(group: int, sig: int) -> bool:
    """Send ``sig`` to a process group; False once it has no members."""
    try:
        os.killpg(group, sig)
    except ProcessLookupError:
        return False
    return True


def _group_ended(group: int, timeout: float) -> bool:
    """Wait until no process, zombies included, is left in ``group``."""
    deadline = perf_counter() + timeout
    while _signal_group(group, 0):
        if perf_counter() >= deadline:
            return False
        sleep(0.02)
    return True
