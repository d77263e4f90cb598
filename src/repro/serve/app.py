"""The KBQA answer service: HTTP routes over :class:`AsyncAnswerer`.

Endpoints (all JSON):

* ``POST /answer``  ``{"question": "..."}`` -> one answer payload.  A
  question the answer cache holds is answered in the callback that received
  its last byte (:meth:`AsyncAnswerer.answer_nowait`): it never reaches
  admission control, so overload cannot refuse it.  A miss takes the queue;
  ``503`` with ``{"error": "overloaded", ...}`` when admission control
  rejects.  An ``X-KBQA-Deadline-Ms`` header (or
  ``ServeConfig.deadline_ms``) bounds the wait: past it the request gets a
  ``504``; a value that is not a finite positive number gets a ``400``.
* ``POST /batch``   ``{"questions": [...]}`` -> ``{"results": [...]}`` in
  input order (:meth:`AsyncAnswerer.answer_many`: cached questions from
  the lane, each distinct miss queued once, admitted as a whole); the
  deadline header applies per question.
* ``POST /facts``   ``{"op": "add"|"delete", "subject", "predicate",
  "object"}`` -> applies a live KB edit through :meth:`AsyncAnswerer.apply`,
  on the event loop between two batches, so the expansion refresh + cache
  invalidation happen with no evaluation in flight.
* ``GET /healthz``  liveness + uptime — answered *before* the answerer, so
  admission control can never starve a liveness probe.
* ``GET /stats``    serving counters, answerer cache occupancy, KB stats,
  the HTTP front's own counters (``http``: ``bad_requests``, refused
  framing answered 400 and closed; ``invalid_requests``, every other 400,
  on a kept connection; disconnects; wire-memo hits and entries) and the
  metrics spine's lifetime latency view.
* ``GET /metrics``  Prometheus text exposition of this process's telemetry
  spine (stage latency histograms, serve/tenant counters, gauges).

Requests may carry an ``X-KBQA-Client`` header naming the tenant: it keys
the per-tenant counters (at most ``MAX_TENANTS`` labels per answerer, see
:mod:`repro.serve.metrics`).

The server also subscribes to the KB backend's change stream and routes
every burst of external mutations (one write, or one ``batch()`` block) into
:meth:`AsyncAnswerer.invalidate`, so edits made directly against the store —
not just through ``/facts`` — keep in-flight results fresh.

Transport: one :class:`asyncio.Protocol` per connection over the sans-IO
parser of :mod:`repro.serve.http` — no stream reader/writer pair, no
per-connection task.  A request's three lanes::

    memo:  data_received -> memo -> probe -> is-entry -> write
    hit:   data_received -> parse_request -> json -> key -> probe -> write
    miss:  data_received -> parse_request -> json -> key -> probe (None) ->
           task(_route -> answer(key) -> queue -> inline batch on the loop
           -> its own future) -> write

A miss hands the task what the lane already parsed — the question, its
key, deadline and tenant (:class:`_Asked`) — so the task decodes no JSON
and tokenizes nothing again; the batch passes the key on to the target.

The memo lane starts at the wire memo: the bytes of a ``POST /answer``
already answered (request line, headers, body) -> its :class:`_Asked`, the
answer-cache entry and the framed reply rendered from it.  Identical bytes
parse identically, so a read on an idle connection equal to a memo key is
answered by a probe and the stored bytes, sent only while the probe returns
that very entry (a replaced entry is rendered again).  A miss, a split or
pipelined request and new header bytes take the hit lane, which stores the
reply when the request was the whole read.

Requests on one connection are answered strictly in order: while a miss is
in flight (or the peer is not draining replies) later bytes stay buffered.

:class:`BackgroundServer` runs the whole thing on a private event-loop
thread for synchronous callers (``kbqa serve``, tests, examples).
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import threading
import time
from typing import TYPE_CHECKING, NamedTuple

from repro.core.online import AnswerResult
from repro.serve.async_answerer import (
    AsyncAnswerer,
    DeadlineExceeded,
    OverloadedError,
    ServeConfig,
    normalized_key,
)
from repro.serve.http import (
    BadRequest,
    HTTPRequest,
    encode_json,
    frame_response,
    parse_request,
    response_bytes,
    truncated,
)
from repro.serve.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus

if TYPE_CHECKING:
    from repro.core.system import KBQA


def result_payload(result: AnswerResult) -> dict:
    """JSON shape of one answer (stable: clients and tests key off this)."""
    return {
        "question": result.question,
        "answered": result.answered,
        "value": result.value,
        "values": list(result.values),
        "score": result.score,
        "entity": result.entity,
        "template": result.template,
        "predicate": str(result.predicate) if result.predicate is not None else None,
        "found_predicate": result.found_predicate,
        "fallback": result.fallback,
    }


# Unparsed input a connection may hold while it cannot make progress (a
# miss in flight, or the peer not draining replies) before the socket stops
# being read — the stream reader's old 64 KiB limit, as back-pressure.
READ_HIGH_WATER = 64 * 1024

# Largest ``POST /answer`` request the wire memo keeps.  A question is a few
# hundred bytes; without a cap, distinct padded requests of up to
# MAX_BODY_BYTES each could pin gigabytes in a memo of 2 048 entries.
WIRE_MEMO_MAX_BYTES = 4096


class _Asked(NamedTuple):
    """A validated ``POST /answer``: what the lane parsed and a miss reuses."""

    question: str
    key: str
    deadline_s: float | None
    tenant: str | None


class _Wired(NamedTuple):
    """A framed 200 for an ``/answer`` hit: what the wire memo stores."""

    asked: _Asked
    keep_alive: bool
    entry: AnswerResult  # the answer-cache entry ``reply`` was rendered from
    reply: bytes


def _internal_error(error: Exception) -> tuple[int, dict]:
    """The deterministic 500: never a traceback, never a hung socket."""
    return 500, {"error": f"{type(error).__name__}: {error}"}


class _Connection(asyncio.Protocol):
    """One client connection: bytes in, in-order replies out.

    Everything runs in transport callbacks on the event loop.  A read on an
    idle connection (empty buffer, not blocked) is first looked up in the
    wire memo; otherwise ``_pump`` is the single place requests are taken
    off the buffer.  It stops while the connection is *blocked* — a miss's
    task is in flight, or the transport asked us to stop writing — and is
    re-entered by whatever unblocks it (``data_received``, the task's
    completion, ``resume_writing``, EOF).
    """

    __slots__ = ("server", "transport", "buffer", "task", "eof", "read_paused", "write_paused")

    def __init__(self, server: "KBQAServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.task: asyncio.Task | None = None  # the in-flight non-inline request
        self.eof = False  # the peer half-closed: no more bytes will arrive
        self.read_paused = False
        self.write_paused = False

    # -- Transport callbacks ------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        assert self.transport is not None
        idle = not (self.buffer or self.task or self.write_paused or self.transport.is_closing())
        if idle and (memo := self.server._replay(data)) is not None:
            self._write(memo.reply, memo.keep_alive)
            return
        self.buffer += data
        self._pump(data if idle else None)

    def eof_received(self) -> bool:
        self.eof = True
        self._pump()
        return True  # keep the write side open: replies may still be owed

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self._pump()

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)
        if exc is not None:
            self.server.disconnects += 1  # client went away mid-request/response
        if self.task is not None:
            self.task.cancel()  # nobody is left to read its reply

    def close(self) -> asyncio.Task | None:
        """Server shutdown: close the transport, cancel the in-flight
        request; returns its task for the caller to await."""
        assert self.transport is not None
        self.transport.close()
        if self.task is not None:
            self.task.cancel()
        return self.task

    # -- Request loop ---------------------------------------------------------

    def _pump(self, read: bytes | None = None) -> None:
        """Answer buffered requests until blocked or out of bytes (``read``:
        the bytes just buffered, when the buffer was empty before them)."""
        transport, server = self.transport, self.server
        assert transport is not None
        while not (self.task or self.write_paused or transport.is_closing()):
            try:
                request = parse_request(self.buffer)
                if request is None and self.eof:
                    if not self.buffer:
                        transport.close()  # clean EOF between requests
                        return
                    raise truncated(self.buffer)
            except BadRequest as error:
                # malformed/truncated bytes: a clean 400 and close
                server.bad_requests += 1
                transport.write(
                    response_bytes(400, {"error": str(error)}, keep_alive=False)
                )
                transport.close()
                return
            if request is None:
                break
            wire, read = (None if self.buffer else read), None  # the whole read?
            try:
                inline = server._inline_answer(request, wire)
            except Exception as error:
                self._reply(request, *_internal_error(error))
                continue
            if isinstance(inline, _Wired):
                self._write(inline.reply, inline.keep_alive)
            else:
                self.task = asyncio.get_running_loop().create_task(
                    self._respond(request, inline)
                )
        blocked = self.task is not None or self.write_paused
        pause = blocked and len(self.buffer) > READ_HIGH_WATER
        if pause != self.read_paused and not transport.is_closing():
            self.read_paused = pause
            if pause:
                transport.pause_reading()
            else:
                transport.resume_reading()

    async def _respond(self, request: HTTPRequest, asked: _Asked | None) -> None:
        """The task path: everything but a cache-hit ``/answer``."""
        status, payload = await self.server._route(request, asked)
        self.task = None
        assert self.transport is not None
        if not self.transport.is_closing():
            self._reply(request, status, payload)
            self._pump()

    def _reply(self, request: HTTPRequest, status: int, payload: dict | str) -> None:
        if isinstance(payload, str):  # /metrics: Prometheus text
            body, content_type = payload.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
        else:
            body, content_type = encode_json(payload), "application/json"
        keep = request.keep_alive
        self._write(frame_response(status, body, keep_alive=keep, content_type=content_type), keep)

    def _write(self, reply: bytes, keep_alive: bool) -> None:
        assert self.transport is not None
        self.transport.write(reply)
        if not keep_alive:
            self.transport.close()


class KBQAServer:
    """Asyncio HTTP front over one trained :class:`~repro.core.system.KBQA`.

    ``port=0`` binds an ephemeral port (read ``server.port`` after
    :meth:`start`).  Use ``async with`` or pair :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        system: "KBQA",
        config: ServeConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.system = system
        self.config = config or ServeConfig()
        self.host = host
        self.port = port
        self.answerer = AsyncAnswerer(system, self.config)
        self._server: asyncio.Server | None = None
        self._unsubscribe = None
        self._connections: set[_Connection] = set()
        self._started_monotonic = 0.0
        self.bad_requests = 0  # refused framing: a 400, then the connection closes
        self.invalid_requests = 0  # route-level 400s (bad JSON, question, deadline)
        self.disconnects = 0  # connections dropped mid-request by the client
        # The wire memo (event loop only): request bytes -> their reply,
        # oldest first, at most the answer cache's size.
        self._wire: dict[bytes, _Wired] = {}
        self.wire_hits = 0  # lane hits written from memo bytes

    # -- Lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the answerer, subscribe to KB changes, bind the socket."""
        await self.answerer.start()
        # External mutations (library calls, other threads) invalidate too —
        # /facts runs its write between two batches, but the change stream
        # is the correctness backstop for *any* write path.
        self._unsubscribe = self.system.kb.store.subscribe(
            lambda _changes: self.answerer.invalidate()
        )
        try:
            self._server = await asyncio.get_running_loop().create_server(
                lambda: _Connection(self), self.host, self.port
            )
        except BaseException:
            await self.stop()  # a failed bind leaves no listener on the store
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def stop(self) -> None:
        """Close the socket and every connection, drain the answerer."""
        if self._server is not None:
            self._server.close()
        tasks = [connection.close() for connection in list(self._connections)]
        await asyncio.gather(
            *(task for task in tasks if task is not None), return_exceptions=True
        )
        await asyncio.sleep(0)  # flushed transports finish closing here
        for connection in list(self._connections):
            # replies still buffered for a peer that stopped reading
            assert connection.transport is not None
            connection.transport.abort()
        if self._server is not None:
            # after the connections: from 3.12 this waits for them to close
            await self._server.wait_closed()
            self._server = None
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        await self.answerer.stop()

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's foreground mode)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def __aenter__(self) -> "KBQAServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- Routing -----------------------------------------------------------

    async def _route(
        self, request: HTTPRequest, asked: _Asked | None = None
    ) -> tuple[int, dict | str]:
        """Status and payload for ``request``; ``asked`` is its ``/answer``
        arguments when the cache-hit lane already parsed them."""
        route = (request.method, request.path)
        try:
            if route == ("GET", "/healthz"):
                return 200, {
                    "status": "ok",
                    "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
                }
            if route == ("GET", "/stats"):
                return 200, {
                    "serve": self.answerer.snapshot(),
                    "caches": self.system.answerer.cache_info(),
                    "kb": self.system.kb.store.stats(),
                    "http": {
                        "bad_requests": self.bad_requests,
                        "invalid_requests": self.invalid_requests,
                        "disconnects": self.disconnects,
                        "wire_hits": self.wire_hits,
                        "wire_entries": len(self._wire),
                    },
                    "metrics": self.answerer.metrics.snapshot(),
                }
            if route == ("GET", "/metrics"):
                return 200, self._render_metrics()
            if route == ("POST", "/answer"):
                return await self._handle_answer(request, asked)
            if route == ("POST", "/batch"):
                return await self._handle_batch(request)
            if route == ("POST", "/facts"):
                return await self._handle_facts(request)
            if request.path in (
                "/healthz", "/stats", "/metrics", "/answer", "/batch", "/facts",
            ):
                return 405, {"error": f"method {request.method} not allowed"}
            return 404, {"error": f"no route for {request.path}"}
        except BadRequest as error:
            self.invalid_requests += 1
            return 400, {"error": str(error)}
        except DeadlineExceeded as error:
            return 504, {"error": "deadline exceeded", "detail": str(error)}
        except OverloadedError:
            return 503, {
                "error": "overloaded",
                "max_pending": self.answerer.config.max_pending,
            }
        except Exception as error:
            return _internal_error(error)

    # -- Metrics export ----------------------------------------------------

    def _render_metrics(self) -> str:
        """The ``/metrics`` body: this process's histograms, counters and
        gauges."""
        snapshot = self.answerer.snapshot()
        gauges = {
            "kbqa_max_batch": self.config.max_batch,
            "kbqa_max_pending": self.config.max_pending,
            "kbqa_pending": snapshot["pending"],
            "kbqa_serving_epoch": snapshot["epoch"],
        }
        return render_prometheus(
            self.answerer.metrics, dataclasses.asdict(self.answerer.stats), gauges
        )

    @staticmethod
    def _tenant(request: HTTPRequest) -> str | None:
        """The requesting tenant from ``X-KBQA-Client`` (None: untagged)."""
        raw = request.headers.get("x-kbqa-client", "").strip()
        return raw or None

    @staticmethod
    def _deadline_s(request: HTTPRequest) -> float | None:
        """Per-request deadline from ``X-KBQA-Deadline-Ms`` (None: config
        default applies)."""
        raw = request.headers.get("x-kbqa-deadline-ms")
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise BadRequest(f"invalid X-KBQA-Deadline-Ms: {raw!r}") from None
        if not math.isfinite(value) or value <= 0:
            raise BadRequest("X-KBQA-Deadline-Ms must be a finite number > 0")
        return value / 1000.0

    def _answer_args(self, request: HTTPRequest) -> _Asked:
        """The validated arguments of a ``POST /answer``, key included."""
        question = request.json().get("question")
        if not isinstance(question, str) or not question.strip():
            raise BadRequest("'question' must be a non-empty string")
        return _Asked(
            question,
            normalized_key(question),
            self._deadline_s(request),
            self._tenant(request),
        )

    def _replay(self, wire: bytes) -> _Wired | None:
        """The memo lane: the reply to request bytes answered before, else
        None (the hit lane's long form takes them).

        The probe goes through the answerer, so every counter and the
        cache's LRU order move as for any hit.  The stored reply is sent
        only if the probe returned the very cache entry it was rendered
        from; a replaced entry is rendered again from what the probe
        returned.  Every write path — ``apply()``, a change-stream clear,
        ``clear_caches``, ``replace_model``, LRU eviction — replaces or drops
        that entry, so the memo is never staler than the cache.
        """
        memo = self._wire.get(wire)
        if memo is None:
            return None
        asked, keep_alive, entry, _reply = memo
        held = self.answerer.answer_nowait(None, asked.tenant, key=asked.key)
        if held is entry:
            self.wire_hits += 1
            return memo
        del self._wire[wire]
        return None if held is None else self._render(wire, asked, keep_alive, held)

    def _render(
        self, wire: bytes | None, asked: _Asked, keep_alive: bool, held: AnswerResult
    ) -> _Wired:
        """Frame ``held`` in the asked spelling; kept under ``wire`` if any."""
        body = encode_json(result_payload(dataclasses.replace(held, question=asked.question)))
        memo = _Wired(asked, keep_alive, held, frame_response(200, body, keep_alive=keep_alive))
        size = self.system.answerer.answer_cache_size
        if wire is not None and len(wire) <= WIRE_MEMO_MAX_BYTES and size > 0:
            while len(self._wire) >= size:  # oldest first
                del self._wire[next(iter(self._wire))]
            self._wire[wire] = memo
        return memo

    def _inline_answer(
        self, request: HTTPRequest, wire: bytes | None = None
    ) -> _Wired | _Asked | None:
        """The cache-hit lane's framed reply for ``request`` (kept under
        ``wire``, its bytes when they were the whole read), else what the
        task path needs.

        Called from ``data_received``.  Anything but a :class:`_Wired` goes
        to :meth:`_route` in a task: a cache miss returns its parsed
        :class:`_Asked`, so the task neither decodes the body nor tokenizes
        the question again; another route or an invalid request returns
        None — the latter is validated identically there and gets its 400
        from the one place that maps errors to statuses, so it is never
        stored.
        """
        if request.method != "POST" or request.path != "/answer":
            return None
        try:
            asked = self._answer_args(request)
        except BadRequest:
            return None
        # the cache's own entry: one per key, whatever the spelling asked
        held = self.answerer.answer_nowait(None, asked.tenant, key=asked.key)
        if held is None:
            return asked
        return self._render(wire, asked, request.keep_alive, held)

    async def _handle_answer(
        self, request: HTTPRequest, asked: _Asked | None = None
    ) -> tuple[int, dict]:
        question, key, deadline_s, tenant = asked or self._answer_args(request)
        # deadline_s None: the config default applies inside answer()
        result = await self.answerer.answer(
            question, deadline_s=deadline_s, tenant=tenant, key=key
        )
        return 200, result_payload(result)

    async def _handle_batch(self, request: HTTPRequest) -> tuple[int, dict]:
        payload = request.json()
        questions = payload.get("questions")
        if (
            not isinstance(questions, list)
            or not questions
            or not all(isinstance(q, str) and q.strip() for q in questions)
        ):
            raise BadRequest("'questions' must be a non-empty list of strings")
        results = await self.answerer.answer_many(
            questions, deadline_s=self._deadline_s(request), tenant=self._tenant(request)
        )
        return 200, {"results": [result_payload(r) for r in results]}

    async def _handle_facts(self, request: HTTPRequest) -> tuple[int, dict]:
        payload = request.json()
        op = payload.get("op")
        if op not in ("add", "delete"):
            raise BadRequest("'op' must be 'add' or 'delete'")
        triple = []
        for field_name in ("subject", "predicate", "object"):
            value = payload.get(field_name)
            if not isinstance(value, str) or not value:
                raise BadRequest(f"'{field_name}' must be a non-empty string")
            triple.append(value)
        subject, predicate, obj = triple
        if op == "add":
            mutation = lambda: self.system.add_fact(subject, predicate, obj)  # noqa: E731
        else:
            mutation = lambda: self.system.delete_fact(subject, predicate, obj)  # noqa: E731
        # apply() never suspends: a client that hangs up (connection_lost
        # cancels its request) cannot stop the write halfway
        return 200, {"op": op, "changed": bool(await self.answerer.apply(mutation))}


class BackgroundServer:
    """A :class:`KBQAServer` on a private event-loop thread.

    Synchronous context manager for ``kbqa serve``, tests and examples::

        with BackgroundServer(system) as bg:
            urllib.request.urlopen(bg.url + "/healthz")

    Entering starts the thread and blocks until the socket is bound (or the
    startup error is re-raised); exiting stops the server and joins the
    thread, so leaking event loops is impossible.
    """

    def __init__(
        self,
        system: "KBQA",
        config: ServeConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._system = system
        self._config = config
        self._host = host
        self._port = port
        self.server: KBQAServer | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._error: BaseException | None = None

    @property
    def url(self) -> str:
        assert self.server is not None, "server not started"
        return f"http://{self.server.host}:{self.server.port}"

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = KBQAServer(self._system, self._config, self._host, self._port)
        try:
            await server.start()
        except BaseException as error:
            self._error = error
            self._ready.set()
            return
        self.server = server
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surface loop crashes to the joiner
            self._error = error
            self._ready.set()

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="kbqa-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._error is not None:
            self._thread.join(timeout=5)
            raise self._error
        if self.server is None:
            raise RuntimeError("server did not become ready within 60s")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not shut down within 30s")
        if self._error is not None:
            raise RuntimeError("server loop crashed") from self._error
