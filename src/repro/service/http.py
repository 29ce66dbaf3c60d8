"""A dependency-free asyncio HTTP/1.1 layer for the service.

The repository's no-new-dependencies rule covers the service too, so
this module implements the sliver of HTTP/1.1 the job API needs
directly on :func:`asyncio.start_server`: request-line + header
parsing, ``Content-Length`` bodies, JSON responses, NDJSON streaming
(for ``watch``), and ``connection: close`` semantics (every exchange is
one connection; the clients the service ships are the CLI and tests,
not browsers holding keep-alive pools).

Handlers are async callables ``(Request) -> Response``; routing is a
list of ``(method, pattern, handler)`` with ``{name}`` path captures.
Anything malformed is answered with a JSON error body -- the server
never lets a bad request take the process down.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from typing import (
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

__all__ = ["Request", "Response", "Router", "json_response", "error_response"]

#: Request bodies past this are rejected (413) before being buffered.
MAX_BODY_BYTES = 1 << 20

#: Header section bound: requests are tiny; anything huge is abuse.
_MAX_HEADER_LINES = 64

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    #: ``{name}`` captures from the matched route pattern.
    params: Dict[str, str] = field(default_factory=dict)
    #: Arrival order of this request at the server (0-based); the
    #: index the ``stall`` chaos fault keys on.
    index: int = 0

    def json(self) -> object:
        """The body decoded as JSON (raises ``ValueError`` on garbage)."""
        if not self.body:
            raise ValueError("empty request body")
        return json.loads(self.body.decode("utf-8"))


@dataclass
class Response:
    """One response: status + headers + either a body or a stream."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    #: When set, the body is streamed chunk by chunk (NDJSON) and the
    #: connection closes at exhaustion; ``body`` is ignored.
    stream: Optional[AsyncIterator[bytes]] = None


def json_response(
    status: int, payload: object, headers: Optional[Dict[str, str]] = None
) -> Response:
    body = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    return Response(
        status=status,
        body=body.encode("utf-8") + b"\n",
        headers=dict(headers or {}),
    )


def error_response(
    status: int, message: str, headers: Optional[Dict[str, str]] = None
) -> Response:
    return json_response(status, {"error": message}, headers)


Handler = Callable[[Request], Awaitable[Response]]


class Router:
    """Method + path-pattern routing with ``{name}`` captures."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, re.Pattern, Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        regex = re.compile(
            "^"
            + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern)
            + "$"
        )
        self._routes.append((method.upper(), regex, handler))

    def resolve(
        self, method: str, path: str
    ) -> Tuple[Optional[Handler], Dict[str, str], bool]:
        """``(handler, params, path_known)`` for one request."""
        path_known = False
        for route_method, regex, handler in self._routes:
            match = regex.match(path)
            if not match:
                continue
            path_known = True
            if route_method == method.upper():
                return handler, match.groupdict(), True
        return None, {}, path_known

    async def dispatch(self, request: Request) -> Response:
        handler, params, path_known = self.resolve(
            request.method, request.path
        )
        if handler is None:
            if path_known:
                return error_response(405, f"method {request.method} not allowed")
            return error_response(404, f"no route for {request.path}")
        request.params = params
        return await handler(request)


async def _read_request(
    reader: asyncio.StreamReader, index: int
) -> Optional[Request]:
    """Parse one request off the wire; None on a closed/empty socket."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {request_line!r}")
    method, target, _version = parts
    path = target.split("?", 1)[0]
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    else:
        raise ValueError("too many request headers")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ValueError(f"bad content-length {length_text!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError(f"content-length {length} out of bounds")
    body = await reader.readexactly(length) if length else b""
    return Request(
        method=method, path=path, headers=headers, body=body, index=index
    )


def _head(response: Response, content_length: Optional[int]) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    headers = {
        "content-type": response.content_type,
        "connection": "close",
        **{name.lower(): value for name, value in response.headers.items()},
    }
    if content_length is not None:
        headers["content-length"] = str(content_length)
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _write_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    if response.stream is None:
        writer.write(_head(response, len(response.body)))
        writer.write(response.body)
        await writer.drain()
        return
    # Streamed NDJSON: no content-length; the close delimits the body.
    writer.write(_head(response, None))
    await writer.drain()
    async for chunk in response.stream:
        writer.write(chunk)
        await writer.drain()


async def serve_connection(
    router: Router,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    index: int,
    pre_handler: Optional[Callable[[Request], Awaitable[None]]] = None,
) -> None:
    """Serve one connection: one request, one response, close.

    ``pre_handler`` runs after parsing and before dispatch -- the hook
    the service uses to apply slow-client ``stall`` chaos without the
    HTTP layer knowing about fault plans.
    """
    try:
        try:
            request = await _read_request(reader, index)
        except (ValueError, asyncio.IncompleteReadError) as error:
            await _write_response(
                writer, error_response(400, f"bad request: {error}")
            )
            return
        if request is None:
            return
        if pre_handler is not None:
            await pre_handler(request)
        try:
            response = await router.dispatch(request)
        except Exception as error:  # one request must not kill the server
            response = error_response(
                500, f"{type(error).__name__}: {error}"
            )
        await _write_response(writer, response)
    except (ConnectionError, BrokenPipeError):
        pass  # client went away mid-response; nothing to salvage
    finally:
        try:
            # Half-close first: a forked pool worker may hold a copy of
            # this socket's fd, and then close() alone sends no FIN --
            # a streamed (close-delimited) body would never end.
            if writer.can_write_eof():
                writer.write_eof()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
