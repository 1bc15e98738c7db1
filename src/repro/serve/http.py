"""Stdlib-only health/metrics endpoint for a running serve fleet.

A tiny HTTP/1.1 responder on ``asyncio.start_server`` — no frameworks, no
threads.  Two JSON routes:

* ``GET /healthz`` — liveness plus slot progress and queue depths;
* ``GET /metrics`` — the tracer's counters/timers and event counts.

Bind ``port=0`` to take an ephemeral port (tests do); the bound port is
available as :attr:`StatusServer.port` after :meth:`StatusServer.start`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable

__all__ = ["StatusServer"]

_STATUS_LINES = {
    200: "HTTP/1.1 200 OK",
    404: "HTTP/1.1 404 Not Found",
    405: "HTTP/1.1 405 Method Not Allowed",
}


class StatusServer:
    """Serves runtime status snapshots over local HTTP.

    ``routes`` maps URL paths to zero-argument callables returning
    JSON-serializable payloads; they run on the event loop, so they must be
    cheap synchronous reads (the runtime's are).
    """

    def __init__(
        self,
        routes: dict[str, Callable[[], dict[str, object]]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.routes = dict(routes)
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None
        self.requests_served = 0

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, path = parts[0], parts[1]
            if method != "GET":
                status, payload = 405, {"error": "only GET is supported"}
            else:
                route = self.routes.get(path)
                if route is None:
                    status, payload = 404, {
                        "error": f"no route {path}",
                        "routes": sorted(self.routes),
                    }
                else:
                    status, payload = 200, route()
            body = json.dumps(payload).encode("utf-8")
            writer.write(
                (
                    f"{_STATUS_LINES[status]}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
            writer.write(body)
            await writer.drain()
            self.requests_served += 1
        finally:
            writer.close()
