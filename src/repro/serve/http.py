"""A minimal asyncio HTTP/1.1 server — stdlib only, by design.

The daemon must run everywhere the CLI runs, so it cannot assume an
async web framework is installed.  This module implements exactly the
subset of HTTP/1.1 the API needs: one JSON request in, one JSON response
out, ``Connection: close`` per exchange, bounded header and body sizes
so a misbehaving client cannot balloon daemon memory.

The parser is deliberately strict — a malformed request is answered
with a 400 and the connection is dropped; nothing is guessed.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Optional
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ProtocolError

#: Upper bounds on request framing; requests beyond them are rejected.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "read_request",
    "serve_connection",
    "start_http_server",
]


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict
    headers: dict  # lower-cased header name -> value
    body: bytes = b""

    def json(self) -> dict:
        """Decode the body as a JSON object ({} for an empty body)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ProtocolError(f"request body is not JSON: {error}")
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"request body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        return payload


@dataclass
class Response:
    """One HTTP response; ``payload`` is serialized as JSON."""

    status: int = 200
    payload: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)

    def encode(self) -> bytes:
        body = json.dumps(self.payload, sort_keys=True).encode("utf-8")
        reason = REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in sorted(self.headers.items()):
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("ascii") + body


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request from a stream; ``None`` on a clean EOF.

    Raises:
        ProtocolError: the bytes on the wire are not a valid request in
            the supported subset (or exceed the framing bounds).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # client closed without sending a request
        raise ProtocolError("connection closed mid-request") from error
    except asyncio.LimitOverrunError as error:
        raise ProtocolError("request head exceeds the size limit") from error
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(
            f"request head is {len(head)} bytes; limit {MAX_HEADER_BYTES}"
        )
    try:
        lines = head.decode("ascii").split("\r\n")
    except UnicodeDecodeError as error:
        raise ProtocolError("request head is not ASCII") from error
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: dict = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as error:
        raise ProtocolError(
            f"malformed Content-Length: {length_text!r}"
        ) from error
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(
            f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]"
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise ProtocolError("connection closed mid-body") from error
    return Request(
        method=method.upper(),
        path=split.path,
        query=dict(parse_qsl(split.query, keep_blank_values=True)),
        headers=headers,
        body=body,
    )


Handler = Callable[[Request], Awaitable[Response]]


async def serve_connection(
    handler: Handler,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one connection: parse, dispatch, answer, close."""
    try:
        try:
            request = await read_request(reader)
        except ProtocolError as error:
            response = Response(400, {"error": "ProtocolError",
                                      "message": str(error), "status": 400})
        else:
            if request is None:
                return
            response = await handler(request)
        writer.write(response.encode())
        await writer.drain()
    except (ConnectionError, BrokenPipeError):
        return  # client went away mid-exchange; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError, OSError):
            return  # close raced the client's reset; socket is gone anyway


async def start_http_server(
    handler: Handler, host: str, port: int
) -> asyncio.AbstractServer:
    """Bind and start serving; returns the listening server object."""

    async def _on_connection(reader, writer):
        try:
            await serve_connection(handler, reader, writer)
        except asyncio.CancelledError:  # lint: allow(NM205): top of the connection task; nothing awaits it, so ending it normally stops nothing
            # A forced teardown cancels handlers still in flight, after
            # serve_connection has closed the socket.  The stream
            # protocol's done-callback calls task.exception(), which
            # raises on a cancelled task and prints a traceback, so the
            # task ends normally instead.
            return

    return await asyncio.start_server(
        _on_connection, host, port, limit=MAX_HEADER_BYTES + MAX_BODY_BYTES
    )
