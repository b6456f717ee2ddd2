"""Blocking client for the LDJSON allocation server.

One short-lived connection per call keeps the client trivially
thread-safe — callers may run many of these in parallel — at the cost
of a TCP handshake per request, which is noise next to an allocation.
"""

from __future__ import annotations

import json
import socket

from repro.errors import ServiceError
from repro.reporting import canonical_json
from repro.service.protocol import AllocationRequest, AllocationResponse

__all__ = ["ServiceClient"]


class ServiceClient:
    def __init__(self, host: str = "127.0.0.1", port: int = 7421,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, message: dict) -> dict:
        """Send one JSON message, return the JSON reply."""
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as sock:
                sock.sendall((canonical_json(message) + "\n").encode())
                reply = self._read_line(sock)
        except OSError as err:
            raise ServiceError(
                f"cannot reach allocation server at "
                f"{self.host}:{self.port}: {err}"
            ) from err
        try:
            return json.loads(reply)
        except ValueError as err:
            raise ServiceError(f"malformed server reply: {err}") from err

    @staticmethod
    def _read_line(sock: socket.socket) -> bytes:
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        line = b"".join(chunks)
        if not line:
            raise ServiceError("server closed the connection mid-request")
        return line

    def allocate(self, request: AllocationRequest) -> AllocationResponse:
        return AllocationResponse.from_wire(self.request(request.to_wire()))

    def ping(self) -> bool:
        return self.request({"type": "ping"}).get("type") == "pong"

    def stats(self) -> dict:
        return self.request({"type": "stats"})

    def shutdown(self) -> dict:
        return self.request({"type": "shutdown"})
