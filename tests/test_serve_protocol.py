"""The sans-IO parser and the per-connection state machine.

``parse_request`` is the only HTTP parser: fed whole, byte by byte or split
anywhere it yields the same requests, and it never consumes a partial one.
``_Connection`` (an ``asyncio.Protocol``) turns buffered bytes into in-order
replies: pipelined requests, HTTP/1.0 close semantics, refused framing,
write and read back-pressure, EOF handling, cancellation of an in-flight
request whose client left — and only 200/400/404/405 under a seeded
mutation fuzzer, with the server healthy afterwards.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.serve import BackgroundServer, ServeConfig
from repro.serve.app import READ_HIGH_WATER
from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    BadRequest,
    HTTPRequest,
    parse_request,
    read_request,
)

TIMEOUT_S = 30.0


def _request(method: str, path: str, body: bytes = b"", version: str = "HTTP/1.1",
             headers: tuple[str, ...] = ()) -> bytes:
    lines = [f"{method} {path} {version}", *headers]
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


def _answer(question: str, **kwargs) -> bytes:
    return _request(
        "POST", "/answer", json.dumps({"question": question}).encode("utf-8"), **kwargs
    )


def _drain(buffer: bytearray) -> list[HTTPRequest]:
    requests = []
    while (request := parse_request(buffer)) is not None:
        requests.append(request)
    return requests


# -- parse_request ----------------------------------------------------------------

WIRE = (
    _answer("what is the population of mapleton?", headers=("X-KBQA-Client: t1",))
    + _request("GET", "/stats?verbose=1")
    + _answer("who?", version="HTTP/1.0", headers=("Connection: keep-alive",))
)


class TestParser:
    def test_whole_buffer_yields_every_request_and_empties_it(self):
        buffer = bytearray(WIRE)
        first, second, third = _drain(buffer)
        assert buffer == b""
        assert (first.method, first.path, first.version) == ("POST", "/answer", "HTTP/1.1")
        assert first.headers["x-kbqa-client"] == "t1"
        assert first.json() == {"question": "what is the population of mapleton?"}
        assert (second.method, second.path, second.body) == ("GET", "/stats", b"")
        assert (third.version, third.keep_alive) == ("HTTP/1.0", True)

    def test_byte_by_byte_and_every_split_point_agree_with_whole(self):
        expected = _drain(bytearray(WIRE))
        buffer, trickled = bytearray(), []
        for byte in WIRE:
            buffer.append(byte)
            before = bytes(buffer)
            request = parse_request(buffer)
            if request is None:
                assert buffer == before  # a partial request is never consumed
            else:
                trickled.append(request)
        assert trickled == expected and buffer == b""
        for cut in range(len(WIRE) + 1):
            buffer = bytearray(WIRE[:cut])
            got = _drain(buffer)
            held = bytes(buffer)
            assert WIRE[:cut].endswith(held)  # only whole requests were popped
            buffer += WIRE[cut:]
            assert got + _drain(buffer) == expected, f"split at {cut}"

    def test_keep_alive_follows_the_request_version(self):
        def keep(version: str, *headers: str) -> bool:
            request = parse_request(
                bytearray(_request("GET", "/healthz", version=version, headers=headers))
            )
            assert request is not None
            return request.keep_alive

        assert keep("HTTP/1.1") is True
        assert keep("HTTP/1.1", "Connection: close") is False
        assert keep("HTTP/1.0") is False
        assert keep("HTTP/1.0", "Connection: Keep-Alive") is True
        assert HTTPRequest(method="GET", path="/").keep_alive is True  # default 1.1

    @pytest.mark.parametrize(
        "wire, message",
        [
            (b"\x00\xff TOTAL GARBAGE\r\n\r\n", "malformed request line"),
            (b"GET /healthz HTTP/2.0\r\n\r\n", "malformed request line"),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", "malformed header line"),
            (b"POST /answer HTTP/1.1\r\nContent-Length: ten\r\n\r\n", "invalid Content-Length"),
            (b"POST /answer HTTP/1.1\r\nContent-Length: -1\r\n\r\n", "invalid Content-Length"),
            (b"POST /answer HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}", "invalid Content-Length"),
            (b"POST /answer HTTP/1.1\r\nContent-Length: 0_2\r\n\r\n{}", "invalid Content-Length"),
            (b"POST /answer HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}", "malformed header line"),
            (
                f"POST /answer HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
                "body too large",
            ),
            (
                b"POST /answer HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 18\r\n\r\n{}",
                "conflicting Content-Length",
            ),
            (
                b"POST /answer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"12\r\n{\"question\": \"q?\"}\r\n0\r\n\r\n",
                "Transfer-Encoding",
            ),
            (
                b"POST /answer HTTP/1.1\r\nTransfer-Encoding: identity\r\nContent-Length: 2\r\n\r\n{}",
                "Transfer-Encoding",
            ),
            (b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEADER_BYTES + b"\r\n\r\n", "too large"),
        ],
    )
    def test_refused_bytes_raise_bad_request(self, wire, message):
        with pytest.raises(BadRequest, match=message):
            parse_request(bytearray(wire))

    def test_repeated_equal_content_length_is_accepted(self):
        wire = b"POST /answer HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}"
        request = parse_request(bytearray(wire))
        assert request is not None and request.body == b"{}"

    def test_header_cap_is_enforced_while_buffering(self):
        """A header block that never ends is refused at 16 KiB, not when (if
        ever) its terminator arrives."""
        buffer = bytearray(b"GET / HTTP/1.1\r\nX-Pad: ")
        buffer += b"a" * (MAX_HEADER_BYTES - len(buffer) - 1)
        assert parse_request(buffer) is None
        buffer += b"a"
        with pytest.raises(BadRequest, match="too large"):
            parse_request(buffer)

    def test_deeply_nested_json_is_a_bad_request(self):
        request = HTTPRequest(method="POST", path="/answer", body=b"[" * 200_000)
        with pytest.raises(BadRequest, match="invalid JSON"):
            request.json()

    def test_stream_adapter_uses_the_same_parser(self):
        async def read(wire: bytes, eof: bool = True):
            reader = asyncio.StreamReader()
            reader.feed_data(wire)
            if eof:
                reader.feed_eof()
            return await read_request(reader)

        assert asyncio.run(read(WIRE)) == _drain(bytearray(WIRE))[0]
        assert asyncio.run(read(b"")) is None
        with pytest.raises(BadRequest, match="truncated request$"):
            asyncio.run(read(b"POST /answer HTTP/1.1\r\nContent-"))
        with pytest.raises(BadRequest, match="truncated request body"):
            asyncio.run(read(b"POST /answer HTTP/1.1\r\nContent-Length: 9\r\n\r\n{"))
        with pytest.raises(BadRequest, match="Transfer-Encoding"):
            asyncio.run(read(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"))


# -- The connection state machine, over real sockets --------------------------------


@pytest.fixture(scope="module")
def serve_system(suite) -> KBQA:
    system = KBQA.train(
        compile_freebase_like(suite.world), suite.corpus, suite.conceptualizer
    )
    yield system
    system.close()


@pytest.fixture(scope="module")
def server(serve_system):
    with BackgroundServer(serve_system, ServeConfig(workers=2, max_batch=8)) as background:
        yield background


@pytest.fixture(scope="module")
def warm_question(suite, serve_system) -> str:
    for entity in suite.world.of_type("city"):
        question = f"what is the population of {entity.name}?"
        if serve_system.answer(question).answered:  # and now it is cached
            return question
    raise AssertionError("no answerable city question in the suite")


def _connect(server, bufsize: int | None = None) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(TIMEOUT_S)
    if bufsize is not None:  # must precede connect to bound the TCP window
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, bufsize)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, bufsize)
    sock.connect((server.server.host, server.server.port))
    return sock


def _spelling(question: str, n: int) -> str:
    """The ``n``-th upper/lower-case spelling of ``question`` (same key)."""
    letters = [i for i, ch in enumerate(question) if ch.isalpha()]
    chars = list(question.lower())
    for bit, index in enumerate(letters):
        if n >> bit & 1:
            chars[index] = chars[index].upper()
    return "".join(chars)


def _read_to_close(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _replies(data: bytes) -> list[tuple[int, bytes, bytes]]:
    """(status, head, body) of every reply in ``data``; nothing may be left over."""
    replies = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator and head.startswith(b"HTTP/1.1 "), data[:80]
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        assert len(rest) >= length
        replies.append((int(head[9:12]), head, rest[:length]))
        data = rest[length:]
    return replies


def _exchange(server, payload: bytes, *, half_close: bool = True) -> list[tuple[int, bytes, bytes]]:
    """Send ``payload`` on a fresh socket, read until the server hangs up."""
    with _connect(server) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        return _replies(_read_to_close(sock))


def _stats(server) -> dict:
    (status, _head, body), = _exchange(server, _request("GET", "/stats"))
    assert status == 200
    return json.loads(body)


def _healthy(server) -> bool:
    (status, _head, _body), = _exchange(server, _request("GET", "/healthz"))
    return status == 200


class TestCloseSemantics:
    def test_http_10_without_keep_alive_is_answered_and_closed(self, server, warm_question):
        (status, head, body), = _exchange(
            server, _answer(warm_question, version="HTTP/1.0"), half_close=False
        )  # returned at all: the server hung up without being asked to
        assert status == 200 and b"connection: close" in head.lower()
        assert json.loads(body)["question"] == warm_question

    def test_http_10_keep_alive_is_honoured(self, server, warm_question):
        wire = _answer(warm_question, version="HTTP/1.0", headers=("Connection: keep-alive",))
        with _connect(server) as sock:
            for _ in range(2):
                sock.sendall(wire)
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    head += sock.recv(1)
                assert b"connection: keep-alive" in head.lower()
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                body = b""
                while len(body) < length:
                    body += sock.recv(length - len(body))

    def test_eof_between_requests_is_a_clean_close(self, server, warm_question):
        before = _stats(server)["http"]
        replies = _exchange(server, _answer(warm_question) + _request("GET", "/healthz"))
        assert [status for status, _h, _b in replies] == [200, 200]
        assert _exchange(server, b"") == []  # connect, half-close: no reply, no error
        assert _stats(server)["http"] == before

    def test_eof_mid_request_is_a_400(self, server, warm_question):
        before = _stats(server)["http"]["bad_requests"]
        replies = _exchange(server, _answer(warm_question) + _answer(warm_question)[:-5])
        assert [status for status, _h, _b in replies] == [200, 400]
        assert b"truncated request body" in replies[1][2]
        assert b"connection: close" in replies[1][1].lower()
        assert _stats(server)["http"]["bad_requests"] == before + 1


class TestRefusedFraming:
    def test_transfer_encoding_is_one_400_not_a_misparse(self, server):
        """The chunk bytes must not be read as a second request."""
        chunked = (
            b"POST /answer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"12\r\n{\"question\": \"q?\"}\r\n0\r\n\r\n"
        )
        replies = _exchange(server, chunked + _request("GET", "/healthz"), half_close=False)
        assert [status for status, _h, _b in replies] == [400]
        assert b"Transfer-Encoding" in replies[0][2]
        assert _healthy(server)

    def test_conflicting_content_lengths_are_a_400(self, server):
        wire = b"POST /answer HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 18\r\n\r\n{}"
        (status, head, _body), = _exchange(server, wire, half_close=False)
        assert status == 400 and b"connection: close" in head.lower()

    def test_endless_header_block_is_cut_off_at_the_cap(self, server):
        with _connect(server) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_HEADER_BYTES + 100))
            (status, _head, body), = _replies(_read_to_close(sock))  # no terminator sent
        assert status == 400 and b"too large" in body
        assert _healthy(server)


class TestPipelining:
    def test_hit_after_miss_is_answered_in_request_order(self, server, warm_question):
        """The second request is a cache hit and could be written at once;
        it must wait for the miss ahead of it."""
        cold = [f"what is the population of nowhere number {n}?" for n in range(3)]
        before = _stats(server)["serve"]
        wire = b"".join(_answer(c) + _answer(warm_question) for c in cold)
        replies = _exchange(server, wire + _request("GET", "/healthz"))
        assert [status for status, _h, _b in replies] == [200] * 7
        echoed = [json.loads(body).get("question") for _s, _h, body in replies[:6]]
        assert echoed == [q for c in cold for q in (c, warm_question)]
        after = _stats(server)["serve"]
        assert after["inline_hits"] - before["inline_hits"] == 3
        assert after["evaluated"] - before["evaluated"] == 3

    def test_stalled_reader_pauses_the_connection_without_unbounded_buffering(
        self, server, warm_question
    ):
        """A client that pipelines 2000 hits and reads nothing: the
        transport's high-water mark stops the pump (``pause_writing``), the
        64 KiB input mark stops the socket read, the kernel stops the
        client — and when the client does read, every reply arrives, in
        order."""
        count = 2000
        # same key, distinct spellings: the echo tells the replies apart
        questions = [_spelling(warm_question, n) for n in range(count)]
        assert len(set(questions)) == count
        wire = b"".join(_answer(q) for q in questions)
        listener = server.server._server.sockets[0]
        options = (socket.SO_SNDBUF, socket.SO_RCVBUF)
        saved = [listener.getsockopt(socket.SOL_SOCKET, option) for option in options]
        for option in options:  # accepted sockets inherit; small = no autotuning
            listener.setsockopt(socket.SOL_SOCKET, option, 4096)
        known = set(server.server._connections)
        sock = _connect(server, bufsize=4096)
        for option, value in zip(options, saved):  # Linux reports twice what was set
            listener.setsockopt(socket.SOL_SOCKET, option, value // 2)
        sender = threading.Thread(target=sock.sendall, args=(wire,), daemon=True)
        try:
            sender.start()
            deadline = time.monotonic() + TIMEOUT_S
            stalled = None
            while stalled is None and time.monotonic() < deadline:
                for connection in set(server.server._connections) - known:
                    if connection.write_paused and connection.read_paused:
                        stalled = connection
                time.sleep(0.01)
            assert stalled is not None, "the connection never paused"
            time.sleep(0.1)  # nothing may grow while the client is not reading
            buffered_out = stalled.transport.get_write_buffer_size()
            _low, high = stalled.transport.get_write_buffer_limits()
            assert buffered_out <= high + 2048  # the mark plus the reply that crossed it
            assert len(stalled.buffer) <= READ_HIGH_WATER + 256 * 1024  # one read past it
            assert sender.is_alive()  # the kernel is pushing back on the client
            assert _healthy(server)  # and nobody else is affected

            data = b""
            while data.count(b"HTTP/1.1 200 ") < count or not data.endswith(b"}"):
                chunk = sock.recv(1 << 20)
                assert chunk, "server hung up early"
                data += chunk
            sender.join(TIMEOUT_S)
            assert not sender.is_alive()
        finally:
            sock.close()
        echoed = [json.loads(body)["question"] for _s, _h, body in _replies(data)]
        assert echoed == questions


class TestAbandonedRequests:
    def test_in_flight_request_is_cancelled_when_the_client_resets(self, serve_system):
        """A miss whose client vanished: the task is cancelled, the
        connection forgotten, the reset counted, shutdown prompt."""
        started, release = threading.Event(), threading.Event()

        class Stalled:
            """``serve_system`` with an evaluation that blocks; no probe."""

            cached_answer = None
            kb, answerer = serve_system.kb, serve_system.answerer

            def answer_many(self, questions):
                started.set()
                release.wait(TIMEOUT_S)
                return serve_system.answer_many(questions)

        try:
            with BackgroundServer(Stalled(), ServeConfig(workers=1)) as background:
                sock = _connect(background)
                sock.sendall(_answer("who is blocked?"))
                assert started.wait(TIMEOUT_S)
                (connection,) = background.server._connections
                task = connection.task
                assert task is not None and not task.done()
                # SO_LINGER 0: close() sends RST, the transport reports an error
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.close()
                deadline = time.monotonic() + TIMEOUT_S
                while background.server._connections and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not background.server._connections
                # connection_lost forgets the connection, then requests the
                # cancel; the task completes it on a later loop step
                while not task.done() and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert task.cancelled()
                assert background.server.disconnects == 1
                # a second client's in-flight request is cancelled by stop()
                other = _connect(background)
                other.sendall(_answer("who else is blocked?"))
                while not background.server._connections:
                    time.sleep(0.01)
                release.set()
                began = time.monotonic()
            assert time.monotonic() - began < 10.0
            other.close()
        finally:
            release.set()


    def test_a_write_outlives_its_cancelled_request(self, serve_system):
        """``/facts`` whose client hung up mid-write: the request is
        cancelled, the write still lands exactly once on the KB's change
        stream (the one ``KBQAServer.start`` subscribes to), its epoch bump
        runs, and ``stop()`` waits for it rather than outrunning it."""
        from repro.kb.backend import ADD
        from repro.kb.triple import make_literal
        from repro.serve.app import KBQAServer

        entered, release = threading.Event(), threading.Event()
        store = serve_system.kb.store
        node = next(store.subjects_iter())
        fact = (node, "population", make_literal("777000777"))

        class SlowWrites:
            kb, answerer = serve_system.kb, serve_system.answerer
            answer_many = serve_system.answer_many

            def add_fact(self, subject, predicate, obj):
                entered.set()
                assert release.wait(TIMEOUT_S)
                return serve_system.add_fact(subject, predicate, obj)

        changes = []
        unsubscribe = store.subscribe(changes.append, changes.extend)

        async def main() -> int:
            loop = asyncio.get_running_loop()
            server = KBQAServer(SlowWrites(), ServeConfig(workers=1))
            async with server:
                body = dict(zip(("subject", "predicate", "object"), fact), op="add")
                request = HTTPRequest(
                    method="POST", path="/facts", body=json.dumps(body).encode()
                )
                routed = asyncio.ensure_future(server._route(request))
                assert await loop.run_in_executor(None, entered.wait, TIMEOUT_S)
                routed.cancel()  # what connection_lost does to the request
                with pytest.raises(asyncio.CancelledError):
                    await routed
                # still blocked in the store when stop() begins
                loop.call_later(0.2, release.set)
            # stop() has returned: the write, its change and its epoch bump
            # are all done, not still running on an executor thread
            assert [change.action for change in changes] == [ADD]
            return server.answerer.stats.applies

        try:
            assert asyncio.run(main()) == 1
            (change,) = changes
            assert tuple(
                store.decode_id(term_id)
                for term_id in (change.subject_id, change.predicate_id, change.object_id)
            ) == fact
            assert fact[2] in store.objects(fact[0], fact[1])
        finally:
            release.set()
            unsubscribe()
            serve_system.delete_fact(*fact)


# -- Mutation fuzzer -------------------------------------------------------------------


def _mutants(seeds: list[bytes], rng: random.Random, count: int):
    for _ in range(count):
        wire = bytearray(rng.choice(seeds))
        kind = rng.choice(
            ["flip", "flip", "flip", "truncate", "big_header", "big_body", "bad_length",
             "deep_json", "splice"]
        )
        if kind == "flip":
            for _ in range(rng.randint(1, 3)):
                wire[rng.randrange(len(wire))] = rng.randrange(256)
        elif kind == "truncate":
            del wire[rng.randrange(len(wire)):]
        elif kind == "big_header":
            pad = b"X-Pad: " + b"p" * rng.choice([MAX_HEADER_BYTES, 4 * MAX_HEADER_BYTES])
            wire[wire.index(b"\r\n") + 2:wire.index(b"\r\n") + 2] = pad + b"\r\n"
        elif kind == "big_body":
            wire = bytearray(_request("POST", "/answer", b" " * (MAX_BODY_BYTES + 1)))
        elif kind == "bad_length":
            value = rng.choice([b"-1", b"ten", b"1e3", b"", b"99999999999999999999", b"0x10", b"7 7"])
            wire = bytearray(
                b"POST /answer HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n{\"question\": \"q?\"}"
            )
        elif kind == "deep_json":
            wire = bytearray(_request("POST", "/answer", b"[" * rng.choice([5_000, 200_000])))
        else:  # two requests with garbage spliced between them
            wire = wire + bytes(rng.randrange(256) for _ in range(rng.randint(1, 40))) + wire
        yield kind, bytes(wire)


class TestFuzz:
    def test_mutated_requests_only_ever_get_client_errors(self, server, warm_question):
        """Seeded mutations of valid requests: every connection is answered
        (or cleanly closed) without a 5xx or a hang, and the server is as
        healthy afterwards as before."""
        rng = random.Random(1609)
        seeds = [
            _answer(warm_question),
            _answer(warm_question, version="HTTP/1.0"),
            _answer("what is the area of nowhere at all?", headers=("X-KBQA-Client: fuzz",)),
            _request("POST", "/batch", json.dumps({"questions": [warm_question] * 2}).encode()),
            _request("GET", "/healthz"),
            _request("GET", "/stats"),
            _request("GET", "/metrics", headers=("Connection: close",)),
        ]
        seen: dict[int, int] = {}
        for kind, wire in _mutants(seeds, rng, 400):
            try:
                replies = _exchange(server, wire)
            except OSError as error:
                # a reset (or ENOTCONN) is how the kernel reports that the
                # server closed with input unread — acceptable; a timeout is
                # a hung connection — not
                assert not isinstance(error, TimeoutError), (kind, wire[:120])
                continue
            if wire:
                assert replies, (kind, wire[:120])  # a raise out of data_received says nothing
            for status, _head, _body in replies:
                assert status in (200, 400, 404, 405), (kind, status, wire[:120])
                seen[status] = seen.get(status, 0) + 1
        assert seen.get(200, 0) > 20 and seen.get(400, 0) > 100, seen
        assert _healthy(server)
        stats = _stats(server)
        assert stats["serve"]["running"] is True and stats["serve"]["pending"] == 0
        assert not [c for c in server.server._connections if c.task is not None]
