"""The dependency-free HTTP layer: parsing, routing, and serving."""

import asyncio
import json
import os
import time

import pytest

from repro.service.http import (
    MAX_BODY_BYTES,
    Request,
    Router,
    error_response,
    json_response,
    serve_connection,
)


def _request(method="GET", path="/", body=b""):
    return Request(method=method, path=path, headers={}, body=body)


class TestRequest:
    def test_json_decodes_the_body(self):
        request = _request(body=b'{"a": 1}')
        assert request.json() == {"a": 1}

    def test_empty_body_raises(self):
        with pytest.raises(ValueError):
            _request().json()

    def test_garbage_body_raises(self):
        with pytest.raises(ValueError):
            _request(body=b"{nope").json()


class TestResponses:
    def test_json_response_is_compact_newline_terminated(self):
        response = json_response(200, {"a": 1, "b": [2]})
        assert response.status == 200
        assert response.body == b'{"a":1,"b":[2]}\n'
        assert response.content_type == "application/json"

    def test_error_response_wraps_the_message(self):
        response = error_response(429, "slow down", {"retry-after": "2"})
        assert response.status == 429
        assert json.loads(response.body) == {"error": "slow down"}
        assert response.headers == {"retry-after": "2"}

    def test_nan_payloads_are_rejected_not_emitted(self):
        with pytest.raises(ValueError):
            json_response(200, {"x": float("nan")})


class TestRouter:
    def _router(self):
        router = Router()

        async def show(request):
            return json_response(200, {"id": request.params["jid"]})

        async def boom(request):
            raise RuntimeError("handler exploded")

        router.add("GET", "/v1/jobs/{jid}", show)
        router.add("POST", "/v1/jobs", boom)
        return router

    def test_resolves_path_captures(self):
        handler, params, known = self._router().resolve(
            "GET", "/v1/jobs/abc123"
        )
        assert handler is not None
        assert params == {"jid": "abc123"}
        assert known is True

    def test_unknown_path_is_distinguished_from_wrong_method(self):
        router = self._router()
        handler, _params, known = router.resolve("GET", "/nope")
        assert handler is None and known is False
        handler, _params, known = router.resolve("DELETE", "/v1/jobs")
        assert handler is None and known is True

    def test_dispatch_maps_unknowns_to_404_and_405(self):
        router = self._router()
        response = asyncio.run(router.dispatch(_request(path="/nope")))
        assert response.status == 404
        response = asyncio.run(
            router.dispatch(_request(method="PUT", path="/v1/jobs"))
        )
        assert response.status == 405

    def test_captures_do_not_span_slashes(self):
        handler, _params, known = self._router().resolve(
            "GET", "/v1/jobs/abc/extra"
        )
        assert handler is None and known is False


#: A response that is complete must reach the client's EOF well inside
#: this; a missing FIN shows up as a timeout instead of a hung test.
_READ_TIMEOUT_S = 5.0


class _LiveServer:
    """A real asyncio server around a router, driven by raw sockets."""

    def __init__(self, router):
        self.router = router

    async def exchange(self, raw: bytes, *, hold_fd: bool = False) -> bytes:
        """One request/response; ``hold_fd`` keeps a duplicate of the
        accepted socket open throughout, as a forked child would."""
        counter = {"n": 0}
        held = []

        async def on_connection(reader, writer):
            index = counter["n"]
            counter["n"] += 1
            if hold_fd:
                held.append(os.dup(writer.get_extra_info("socket").fileno()))
            await serve_connection(self.router, reader, writer, index=index)

        server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(raw)
            await writer.drain()
            writer.write_eof()
            response = await asyncio.wait_for(reader.read(), _READ_TIMEOUT_S)
            writer.close()
            await writer.wait_closed()
            return response
        finally:
            for fd in held:
                os.close(fd)
            server.close()
            await server.wait_closed()


def _status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _body_of(response: bytes) -> bytes:
    return response.split(b"\r\n\r\n", 1)[1]


class TestServeConnection:
    @pytest.fixture
    def server(self):
        router = Router()

        async def echo(request):
            return json_response(200, {"got": request.json()})

        async def boom(request):
            raise RuntimeError("handler exploded")

        async def stream(request):
            async def lines():
                for i in range(3):
                    yield f'{{"i":{i}}}\n'.encode()

            from repro.service.http import Response

            return Response(
                status=200,
                content_type="application/x-ndjson",
                stream=lines(),
            )

        router.add("POST", "/echo", echo)
        router.add("GET", "/boom", boom)
        router.add("GET", "/stream", stream)
        return _LiveServer(router)

    def test_round_trip(self, server):
        body = b'{"x": 7}'
        raw = (
            b"POST /echo HTTP/1.1\r\ncontent-length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        response = asyncio.run(server.exchange(raw))
        assert _status_of(response) == 200
        assert json.loads(_body_of(response)) == {"got": {"x": 7}}
        assert b"connection: close" in response.lower()

    def test_malformed_request_line_is_a_400(self, server):
        response = asyncio.run(server.exchange(b"NONSENSE\r\n\r\n"))
        assert _status_of(response) == 400

    def test_bad_content_length_is_a_400(self, server):
        raw = b"POST /echo HTTP/1.1\r\ncontent-length: banana\r\n\r\n"
        response = asyncio.run(server.exchange(raw))
        assert _status_of(response) == 400

    def test_oversized_body_is_refused_before_buffering(self, server):
        raw = (
            b"POST /echo HTTP/1.1\r\ncontent-length: "
            + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n"
        )
        response = asyncio.run(server.exchange(raw))
        assert _status_of(response) == 400

    def test_truncated_body_is_a_400_not_a_hang(self, server):
        raw = b"POST /echo HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"x\":"
        response = asyncio.run(server.exchange(raw))
        assert _status_of(response) == 400

    def test_handler_exception_becomes_a_500(self, server):
        response = asyncio.run(
            server.exchange(b"GET /boom HTTP/1.1\r\n\r\n")
        )
        assert _status_of(response) == 500
        assert b"handler exploded" in response

    def test_unroutable_path_is_a_404(self, server):
        response = asyncio.run(
            server.exchange(b"GET /missing HTTP/1.1\r\n\r\n")
        )
        assert _status_of(response) == 404

    def test_ndjson_stream_delivers_every_line(self, server):
        response = asyncio.run(
            server.exchange(b"GET /stream HTTP/1.1\r\n\r\n")
        )
        assert _status_of(response) == 200
        lines = [
            json.loads(line)
            for line in _body_of(response).splitlines()
            if line
        ]
        assert lines == [{"i": 0}, {"i": 1}, {"i": 2}]

    def test_stream_ends_while_another_process_holds_the_socket(
        self, server
    ):
        """A pool worker forked during a watch stream inherits the
        connection's fd; the body must still end with a FIN, not leave
        the client waiting for its timeout."""
        start = time.monotonic()
        response = asyncio.run(
            server.exchange(b"GET /stream HTTP/1.1\r\n\r\n", hold_fd=True)
        )
        assert time.monotonic() - start < 1.0
        assert _body_of(response).splitlines() == [
            b'{"i":0}', b'{"i":1}', b'{"i":2}'
        ]

    def test_empty_connection_is_ignored(self, server):
        response = asyncio.run(server.exchange(b""))
        assert response == b""
