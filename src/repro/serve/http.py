"""Minimal HTTP/1.x — a sans-IO parser and response framing, stdlib only.

The serving front needs exactly four things from HTTP: parse a request line
+ headers, read a ``Content-Length`` body, write a framed JSON response, and
honor keep-alive.  ``http.server`` is thread-per-connection and fights the
event loop, so this module implements that minimal subset itself.

There is **one parser**, :func:`parse_request`, and it does no IO: it is
handed the connection's receive buffer and either pops one complete request
off its front, reports that more bytes are needed (buffer untouched), or
raises :class:`BadRequest`.  The ``asyncio.Protocol`` in
:mod:`repro.serve.app` calls it straight from ``data_received``, so a
request is parsed in the callback that delivered its last byte — no
``StreamReader``, no reader task to wake.  :func:`read_request` is a thin
adapter that feeds a ``StreamReader`` into the same parser for callers that
hold a stream (the end-to-end benchmark's parse replay, tests).

A response is built in two halves: :func:`encode_json` turns a payload into
body bytes, and :func:`frame_response` — the one place that writes a status
line and headers — frames any body.  :func:`response_bytes` is both in a
row.  The app's cache-hit lane frames a rendered body once per distinct
request and keeps the framed bytes (``Connection`` depends on the request).

Limits are deliberate and small (16 KiB of headers — enforced while
buffering, so a client that never ends its header block is cut off there —
and 1 MiB of body): the server answers questions, it does not accept
uploads.  Framing outside the subset is refused rather than guessed at: any
``Transfer-Encoding`` (a chunked body read as "no body" would have its
chunks parsed as the next request), two ``Content-Length`` headers that
disagree, a ``Content-Length`` that is not plain ASCII digits (``int()``
would take ``+2`` and ``0_2``), an empty header name (RFC 9110 §5.1 asks
for a token) and whitespace between a header name and its colon (RFC 9112
§5.1) — each a way for this server and a proxy in front of it to frame the
same bytes differently.  Hostile digits are refused as well, never left to
``int()``'s 4 300-digit limit: a ``Content-Length`` with more significant
digits than ``MAX_BODY_BYTES`` is "body too large", and a JSON body
holding a number too long to convert is invalid JSON.  Everything refused
raises :class:`BadRequest`, which the app layer maps to a 400 (and, for
the framing, a closed connection).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024
# a Content-Length with more significant digits is too large, however long
_MAX_BODY_DIGITS = len(str(MAX_BODY_BYTES))

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class BadRequest(ValueError):
    """The bytes on the wire are not a request this server accepts."""


@dataclass(frozen=True, slots=True)
class HTTPRequest:
    """One parsed request: method, path (query string stripped), headers
    (lower-cased names), raw body bytes, and the request line's version."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keeps the connection unless the client says close;
        HTTP/1.0 closes it unless the client asks for keep-alive.

        ``Connection`` is a comma-separated token list (RFC 9110 §7.6.1),
        so ``close, TE`` closes and ``Keep-Alive, TE`` keeps."""
        connection = self.headers.get("connection")
        if connection is None:
            return self.version != "HTTP/1.0"
        tokens = {token.strip().lower() for token in connection.split(",")}
        if self.version == "HTTP/1.0":
            return "keep-alive" in tokens
        return "close" not in tokens

    def json(self) -> dict:
        """Parse the body as a JSON object (the only payload shape used)."""
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except ValueError as error:
            # UnicodeDecodeError, JSONDecodeError, and the ValueError of an
            # integer past the interpreter's int-digit limit
            raise BadRequest(f"invalid JSON body: {error}") from None
        except RecursionError:  # a megabyte of "[" is a bad request, not a 500
            raise BadRequest("invalid JSON body: nested too deeply") from None
        if not isinstance(payload, dict):
            raise BadRequest("JSON body must be an object")
        return payload


def parse_request(buffer: bytearray) -> HTTPRequest | None:
    """Pop one complete request off the front of ``buffer``.

    ``None`` means the buffer does not hold a whole request yet — it is left
    exactly as it was, so the caller appends the next bytes and asks again.
    :class:`BadRequest` means the bytes can never become a request this
    server accepts (the buffer is then unspecified: the caller closes).
    """
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        # the finished head would be at least one byte longer than this
        if len(buffer) >= MAX_HEADER_BYTES:
            raise BadRequest("request headers too large")
        return None
    body_start = head_end + 4
    if body_start > MAX_HEADER_BYTES:
        raise BadRequest("request headers too large")

    lines = buffer[:head_end].decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    path = target.split("?", 1)[0]

    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip():
            raise BadRequest(f"malformed header line: {line!r}")
        name, value = name.lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise BadRequest("conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise BadRequest("Transfer-Encoding is not supported (send Content-Length)")

    length = 0
    if "content-length" in headers:
        value = headers["content-length"]
        if not (value.isascii() and value.isdigit()):
            raise BadRequest("invalid Content-Length")
        digits = value.lstrip("0")
        if len(digits) > _MAX_BODY_DIGITS:  # never handed to int(), whose limit is 4 300
            raise BadRequest(f"body too large ({len(digits)}-digit Content-Length)")
        length = int(digits or "0")
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"body too large ({length} bytes)")
    end = body_start + length
    if len(buffer) < end:
        return None
    body = bytes(buffer[body_start:end])
    del buffer[:end]
    return HTTPRequest(
        method=method.upper(), path=path, headers=headers, body=body, version=version
    )


def truncated(buffer: bytearray) -> BadRequest:
    """The error for a peer that hung up with ``buffer`` left unparsed."""
    in_body = b"\r\n\r\n" in buffer
    return BadRequest("truncated request body" if in_body else "truncated request")


async def read_request(reader: asyncio.StreamReader) -> HTTPRequest | None:
    """Stream adapter over :func:`parse_request`: the reader's first request,
    ``None`` on EOF before any byte.  Bytes it read past that request are
    dropped, so it suits one-request streams, not keep-alive connections."""
    buffer = bytearray()
    while (request := parse_request(buffer)) is None:
        chunk = await reader.read(65536)
        if not chunk:
            if not buffer:
                return None
            raise truncated(buffer)
        buffer += chunk
    return request


def encode_json(payload: dict) -> bytes:
    """A JSON response body: ``payload`` with sorted keys, UTF-8 encoded."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def frame_response(
    status: int,
    body: bytes,
    *,
    keep_alive: bool = True,
    content_type: str = "application/json",
) -> bytes:
    """Frame an encoded body: status line, Content-Type, Content-Length and
    Connection.  Every response this server writes goes through here."""
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def response_bytes(status: int, payload: dict, *, keep_alive: bool = True) -> bytes:
    """Frame a JSON response with correct Content-Length and Connection."""
    return frame_response(status, encode_json(payload), keep_alive=keep_alive)
