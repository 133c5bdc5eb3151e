"""Minimal HTTP/1.1 framing over asyncio streams.

The serve tier speaks plain HTTP/JSON so any client — ``curl``, a
simulator harness, the bundled :mod:`repro.serve.client` — can drive it,
but it deliberately avoids ``http.server`` (blocking, thread-per-request)
in favor of :func:`asyncio.start_server` streams: one event loop admits
and schedules every request, which is what makes the admission queue and
per-request timeouts enforceable in one place.

This module is only the wire format: parse one request from a stream
(:func:`read_request`), write one response (:func:`write_response`).
Routing, queueing, and evaluation live in :mod:`repro.serve.app`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Iterable
from urllib.parse import parse_qsl, urlsplit

#: Largest accepted request body. Sweep specs are a few KB; anything
#: bigger than this is a client bug, not a workload.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Reason phrases for every status the service emits.
STATUS_REASONS: dict[int, str] = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A request that cannot be served, mapped to an HTTP status.

    Attributes:
        status: HTTP status code to respond with.
        message: Human-readable error detail (goes into the JSON body).
        headers: Extra response headers (e.g. ``Retry-After``).
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: Iterable[tuple[str, str]] = (),
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = tuple(headers)


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request.

    Attributes:
        method: Upper-cased HTTP method (``GET``, ``POST``, ...).
        path: URL path without the query string.
        query: Decoded query parameters (last value wins).
        headers: Headers with lower-cased names.
        body: Raw request body (empty for body-less requests).
    """

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should stay open after the response."""
        return self.headers.get("connection", "keep-alive") != "close"

    def json(self) -> Any:
        """Decode the body as JSON.

        Raises:
            HttpError: 400 when the body is empty or not valid JSON.
        """
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(
                400, f"request body is not valid JSON: {exc}"
            ) from exc


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> HttpRequest | None:
    """Parse one HTTP/1.1 request from a stream.

    Returns:
        The parsed request, or None on a clean end-of-stream before any
        bytes arrived (client closed an idle keep-alive connection).

    Raises:
        HttpError: On a malformed request line/headers (400) or a body
            larger than ``max_body_bytes`` (413).
    """
    try:
        request_line = await reader.readline()
    except (ValueError, ConnectionError) as exc:
        raise HttpError(400, f"unreadable request line: {exc}") from exc
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed HTTP request line")
    method, target = parts[0].upper(), parts[1]

    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            raise HttpError(400, "connection closed inside headers")
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise HttpError(400, "malformed Content-Length") from exc
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > max_body_bytes:
            raise HttpError(
                413, f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "connection closed inside body") from exc

    split = urlsplit(target)
    return HttpRequest(
        method=method,
        path=split.path or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def encode_json(payload: Any) -> bytes:
    """Serialize a response payload as compact JSON plus a newline.

    Raises:
        ValueError: On a NaN or infinite float, which strict JSON cannot
            carry; the dispatcher turns it into a 5xx error body.
    """
    return (
        json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    ).encode("utf-8")


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    headers: Iterable[tuple[str, str]] = (),
    keep_alive: bool = True,
) -> None:
    """Write one HTTP/1.1 response and flush the stream."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


def error_body(status: int, message: str, **extra: Any) -> bytes:
    """The canonical JSON error payload."""
    payload: dict[str, Any] = {
        "error": STATUS_REASONS.get(status, "error"),
        "detail": message,
    }
    payload.update(extra)
    return encode_json(payload)
