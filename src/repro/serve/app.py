"""The KBQA answer service: HTTP routes over :class:`AsyncAnswerer`.

Endpoints (all JSON):

* ``POST /answer``  ``{"question": "..."}`` -> one answer payload.  A
  question the answer cache holds is answered in the callback that received
  its last byte (:meth:`AsyncAnswerer.answer_nowait`, ``"degraded":
  false``): it never reaches admission control, so overload cannot refuse
  it.  A miss takes the queue; ``503`` with ``{"error": "overloaded", ...}``
  when admission control rejects.  The degraded fallback — a cached result
  served with ``"degraded": true`` because an answer beats a refusal — is
  therefore left with the refusals the lane did not already absorb: a
  request refused while a quiesced write holds the lane shut, and targets
  whose cache the lane cannot read (no ``cached_answer`` on the target).  An
  ``X-KBQA-Deadline-Ms`` header (or ``ServeConfig.deadline_ms``) bounds the
  wait: past it the request gets a ``504``.
* ``POST /batch``   ``{"questions": [...]}`` -> ``{"results": [...]}`` in
  input order (each question goes through coalescing individually); the
  deadline header applies per question, and the degraded fallback fires
  only when *every* question is cached.
* ``POST /facts``   ``{"op": "add"|"delete", "subject", "predicate",
  "object"}`` -> applies a live KB edit through the write-quiescence path,
  so the expansion refresh + cache invalidation happen with no evaluation
  in flight.
* ``GET /healthz``  liveness + uptime — answered *before* the answerer, so
  admission control and tenant quotas can never starve a liveness probe.
* ``GET /stats``    serving counters, answerer cache occupancy, KB stats,
  the metrics spine's windowed latency view and (when adaptive) the SLO
  controller's knobs + tick trace.
* ``GET /metrics``  Prometheus text exposition of the telemetry spine
  (stage latency histograms, serve/tenant counters, live-knob gauges);
  under the multi-process front each replica periodically dumps its
  cumulative state to a shared directory and whichever replica serves the
  scrape merges the dumps with its own live state.

Requests may carry an ``X-KBQA-Client`` header naming the tenant: it keys
the per-tenant counters and — with ``ServeConfig.quota`` set — the
token-bucket admission whose rejections map to ``429``.

The server also subscribes to the KB backend's change stream (single and
batched) and routes every external mutation into
:meth:`AsyncAnswerer.invalidate`, so edits made directly against the store —
not just through ``/facts`` — keep in-flight results fresh.

Transport: one :class:`asyncio.Protocol` per connection over the sans-IO
parser of :mod:`repro.serve.http` — no stream reader/writer pair, no
per-connection task.  A request's two lanes::

    hit:   data_received -> parse_request -> key -> probe -> payload -> write
    miss:  data_received -> parse_request -> task(_route -> answer ->
           queue -> batch -> pool thread -> future) -> write

Requests on one connection are answered strictly in order: while a miss is
in flight (or the peer is not draining replies) later bytes stay buffered.

:class:`BackgroundServer` runs the whole thing on a private event-loop
thread for synchronous callers (tests, the CLI smoke mode, examples).
"""

from __future__ import annotations

import asyncio
import json as _json
import os
import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.core.online import AnswerResult
from repro.serve.faults import faults_active
from repro.serve.async_answerer import (
    AsyncAnswerer,
    DeadlineExceeded,
    OverloadedError,
    ServeConfig,
)
from repro.serve.control import QuotaExceeded
from repro.serve.http import (
    BadRequest,
    HTTPRequest,
    parse_request,
    response_bytes,
    text_response_bytes,
    truncated,
)
from repro.serve.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    merge_states,
    render_prometheus,
)

if TYPE_CHECKING:
    from repro.core.system import KBQA


def result_payload(result: AnswerResult, *, degraded: bool = False) -> dict:
    """JSON shape of one answer (stable: clients and tests key off this).

    ``degraded=True`` marks an answer served from the answer cache while the
    evaluation backend was unavailable — correct as of its caching, but not
    freshly evaluated.
    """
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
        "degraded": degraded,
        "fallback": result.fallback,
    }


# Unparsed input a connection may hold while it cannot make progress (a
# miss in flight, or the peer not draining replies) before the socket stops
# being read — the stream reader's old 64 KiB limit, as back-pressure.
READ_HIGH_WATER = 64 * 1024


def _internal_error(error: Exception) -> tuple[int, dict]:
    """The deterministic 500: never a traceback, never a hung socket."""
    return 500, {"error": f"{type(error).__name__}: {error}"}


class _Connection(asyncio.Protocol):
    """One client connection: bytes in, in-order replies out.

    Everything runs in transport callbacks on the event loop.  ``_pump`` is
    the single place requests are taken off the buffer; it stops while the
    connection is *blocked* — a miss's task is in flight, or the transport
    asked us to stop writing — and is re-entered by whatever unblocks it
    (``data_received``, the task's completion, ``resume_writing``, EOF).
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
        self.buffer += data
        self._pump()

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

    def _pump(self) -> None:
        """Answer buffered requests until blocked or out of bytes."""
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
            try:
                hit = server._inline_answer(request)
            except Exception as error:
                self._reply(request, *_internal_error(error))
                continue
            if hit is not None:
                self._reply(request, 200, hit)
            else:
                self.task = asyncio.get_running_loop().create_task(
                    self._respond(request)
                )
        blocked = self.task is not None or self.write_paused
        pause = blocked and len(self.buffer) > READ_HIGH_WATER
        if pause != self.read_paused and not transport.is_closing():
            self.read_paused = pause
            if pause:
                transport.pause_reading()
            else:
                transport.resume_reading()

    async def _respond(self, request: HTTPRequest) -> None:
        """The task path: everything but a cache-hit ``/answer``."""
        status, payload = await self.server._route(request)
        self.task = None
        assert self.transport is not None
        if not self.transport.is_closing():
            self._reply(request, status, payload)
            self._pump()

    def _reply(self, request: HTTPRequest, status: int, payload: dict | str) -> None:
        assert self.transport is not None
        keep = request.keep_alive
        if isinstance(payload, str):  # /metrics: Prometheus text
            data = text_response_bytes(
                status, payload, keep_alive=keep, content_type=PROMETHEUS_CONTENT_TYPE
            )
        else:
            data = response_bytes(status, payload, keep_alive=keep)
        self.transport.write(data)
        if not keep:
            self.transport.close()


class KBQAServer:
    """Asyncio HTTP front over one trained :class:`~repro.core.system.KBQA`.

    ``port=0`` binds an ephemeral port (read ``server.port`` after
    :meth:`start`).  Use ``async with`` or pair :meth:`start`/:meth:`stop`.

    ``reuse_port=True`` binds the listening socket with
    ``SO_REUSEPORT`` so N sibling server processes can share one port (the
    `repro.serve.multiproc` front); ``fact_listener`` is called after every
    successful ``/facts`` mutation with ``(op, subject, predicate, object)``
    — the hook the multi-process front uses to replicate writes to its
    siblings.
    """

    def __init__(
        self,
        system: "KBQA",
        config: ServeConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        reuse_port: bool = False,
        fact_listener: "Callable[[str, str, str, str], None] | None" = None,
        metrics_dir: str | None = None,
        replica_index: int = 0,
    ) -> None:
        self.system = system
        self.config = config or ServeConfig()
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self.fact_listener = fact_listener
        # multi-process metrics merging: replicas dump cumulative state
        # here (dump_metrics, called from the multiproc poll loop) and any
        # replica serving /metrics or /stats merges the siblings' dumps
        # with its own live state
        self.metrics_dir = metrics_dir
        self.replica_index = replica_index
        self.answerer = AsyncAnswerer(system, self.config)
        self._server: asyncio.Server | None = None
        self._unsubscribe = None
        self._connections: set[_Connection] = set()
        self._writes: set[asyncio.Task] = set()  # /facts writes in flight
        self._started_monotonic = 0.0
        self.bad_requests = 0  # malformed/truncated requests answered with 400
        self.disconnects = 0  # connections dropped mid-request by the client

    # -- Lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the answerer, subscribe to KB changes, bind the socket."""
        await self.answerer.start()
        # External mutations (library calls, other threads) invalidate too —
        # /facts goes further and quiesces, but the change stream is the
        # correctness backstop for *any* write path.
        self._unsubscribe = self.system.kb.store.subscribe(
            lambda _change: self.answerer.invalidate(),
            lambda _changes: self.answerer.invalidate(),
        )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self),
            self.host,
            self.port,
            reuse_port=self.reuse_port or None,
        )
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
        # a write outlives its (cancelled) request: let it finish and replicate
        await asyncio.gather(*self._writes, return_exceptions=True)
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

    async def _route(self, request: HTTPRequest) -> tuple[int, dict | str]:
        route = (request.method, request.path)
        try:
            if route == ("GET", "/healthz"):
                return 200, {
                    "status": "ok",
                    "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
                }
            if route == ("GET", "/stats"):
                payload = {
                    "serve": self.answerer.snapshot(),
                    "caches": self.system.answerer.cache_info(),
                    "kb": self.system.kb.store.stats(),
                    "http": {
                        "bad_requests": self.bad_requests,
                        "disconnects": self.disconnects,
                    },
                    "metrics": self.answerer.metrics.snapshot(),
                    "controller": self.answerer.controller_snapshot(),
                }
                if self.metrics_dir is not None:
                    merged, reporting = self._merged_state()
                    payload["replicas"] = {
                        "reporting": reporting,
                        "requests": merged["counters"].get("requests", 0),
                        "batches": merged["counters"].get("batches", 0),
                    }
                return 200, payload
            if route == ("GET", "/metrics"):
                return 200, self._render_metrics()
            if route == ("POST", "/answer"):
                return await self._handle_answer(request)
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
            return 400, {"error": str(error)}
        except DeadlineExceeded as error:
            return 504, {"error": "deadline exceeded", "detail": str(error)}
        except QuotaExceeded as error:
            return 429, {"error": "quota exceeded", "detail": str(error)}
        except OverloadedError:
            return 503, {
                "error": "overloaded",
                "max_pending": self.answerer.max_pending,
            }
        except Exception as error:
            return _internal_error(error)

    # -- Metrics export ----------------------------------------------------

    def _own_metrics_path(self) -> str:
        assert self.metrics_dir is not None
        return os.path.join(self.metrics_dir, f"replica-{self.replica_index}.json")

    def dump_metrics(self) -> None:
        """Atomically publish this replica's cumulative metrics state.

        Called periodically from the multi-process front's poll loop; the
        tmp-write + rename means a sibling merging mid-dump can never read
        a torn file.
        """
        if self.metrics_dir is None:
            return
        path = self._own_metrics_path()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            _json.dump(self.answerer.metrics_state(), handle, separators=(",", ":"))
        os.replace(tmp, path)

    def _merged_state(self) -> tuple[dict, int]:
        """This replica's live state merged with every sibling's last dump.

        Returns ``(state, replicas_reporting)`` where the count includes
        this replica.  A sibling's dump of *this* replica's slot is ignored
        in favor of the live state (fresher by up to one dump interval).
        """
        states = [self.answerer.metrics_state()]
        if self.metrics_dir is not None:
            own = (
                os.path.basename(self._own_metrics_path()),
                os.path.basename(self._own_metrics_path()) + ".tmp",
            )
            try:
                names = sorted(os.listdir(self.metrics_dir))
            except OSError:
                names = []
            for name in names:
                if name in own or not name.endswith(".json"):
                    continue
                try:
                    with open(
                        os.path.join(self.metrics_dir, name), encoding="utf-8"
                    ) as handle:
                        states.append(_json.load(handle))
                except (OSError, ValueError):
                    continue  # sibling died mid-rename or dumped garbage
        return merge_states(states), len(states)

    def _render_metrics(self) -> str:
        """The ``/metrics`` body: merged counters + live-knob gauges."""
        state, reporting = (
            self._merged_state()
            if self.metrics_dir is not None
            else (merge_states([self.answerer.metrics_state()]), 1)
        )
        snapshot = self.answerer.snapshot()
        gauges = {
            "kbqa_batch_window_ms": self.answerer.batch_window_ms,
            "kbqa_max_batch": self.answerer.max_batch,
            "kbqa_max_pending": self.answerer.max_pending,
            "kbqa_pending": snapshot["pending"],
            "kbqa_serving_epoch": snapshot["epoch"],
            "kbqa_replicas_reporting": reporting,
        }
        return render_prometheus(state, gauges)

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
        if value <= 0:
            raise BadRequest("X-KBQA-Deadline-Ms must be > 0")
        return value / 1000.0

    def _answer_args(
        self, request: HTTPRequest
    ) -> tuple[str, float | None, str | None]:
        """Validated ``(question, deadline_s, tenant)`` of a ``POST /answer``."""
        question = request.json().get("question")
        if not isinstance(question, str) or not question.strip():
            raise BadRequest("'question' must be a non-empty string")
        return question, self._deadline_s(request), self._tenant(request)

    def _inline_answer(self, request: HTTPRequest) -> dict | None:
        """The cache-hit lane's payload for ``request``, else None.

        Called from ``data_received``.  None covers every request
        :meth:`_route` must handle in a task: another route, a cache miss,
        and an invalid request — which is validated identically there and
        gets its 400 from the one place that maps errors to statuses.
        """
        if request.method != "POST" or request.path != "/answer":
            return None
        try:
            question, _deadline_s, tenant = self._answer_args(request)
        except BadRequest:
            return None
        hit = self.answerer.answer_nowait(question, tenant)
        return None if hit is None else result_payload(hit)

    async def _handle_answer(self, request: HTTPRequest) -> tuple[int, dict]:
        question, deadline_s, tenant = self._answer_args(request)
        try:
            if deadline_s is None:  # config default applies inside answer()
                result = await self.answerer.answer(question, tenant=tenant)
            else:
                result = await self.answerer.answer(
                    question, deadline_s=deadline_s, tenant=tenant
                )
        except OverloadedError as error:
            # degraded mode: the evaluation backend is saturated — a cached
            # answer beats a refusal, so probe the answer cache (free)
            # before surfacing the 503.  The cache-hit lane already answered
            # every hit it could read, so this fires only where the lane was
            # shut or blind (see the module docstring).
            cached = self.system.answerer.cached_answer(question)
            if cached is None:
                raise error
            self.answerer.stats.degraded += 1
            return 200, result_payload(cached, degraded=True)
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
        deadline_s = self._deadline_s(request)
        tenant = self._tenant(request)
        try:
            if deadline_s is None:
                results = await self.answerer.answer_many(questions, tenant=tenant)
            else:
                results = await self.answerer.answer_many(
                    questions, deadline_s=deadline_s, tenant=tenant
                )
        except OverloadedError as error:
            # a batch degrades only whole: partially-cached output would be
            # indistinguishable from a shorter result list
            cached = [self.system.answerer.cached_answer(q) for q in questions]
            if any(c is None for c in cached):
                raise error
            self.answerer.stats.degraded += len(cached)
            return 200, {
                "results": [result_payload(c, degraded=True) for c in cached]
            }
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

        async def write() -> bool:
            changed = await self.answerer.apply(mutation)
            if changed and self.fact_listener is not None:
                self.fact_listener(op, subject, predicate, obj)
            return bool(changed)

        # Its own task, shielded: a client that hangs up cancels its request
        # (connection_lost), and a write cancelled between the mutation and
        # the listener would be applied here but never replicated.
        task = asyncio.ensure_future(write())
        self._writes.add(task)
        task.add_done_callback(self._writes.discard)
        return 200, {"op": op, "changed": await asyncio.shield(task)}


class BackgroundServer:
    """A :class:`KBQAServer` on a private event-loop thread.

    Synchronous context manager for tests, examples and the CLI smoke mode::

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
            raise RuntimeError("server failed to start") from self._error
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


def run_smoke(
    system: "KBQA",
    questions: list[str],
    *,
    threads: int = 8,
    requests_per_thread: int = 4,
    config: ServeConfig | None = None,
    procs: int = 1,
) -> dict:
    """Start a server, hammer it from ``threads`` concurrent clients, stop.

    Every client issues ``requests_per_thread`` ``POST /answer`` calls (the
    question stream repeats, so coalescing gets exercised), one client-side
    ``/batch``, and a ``/healthz`` + ``/stats`` read; ``/metrics`` must
    parse as Prometheus text format.  Two raw-socket exchanges check the
    connection state machine: a pipelined pair must come back as two
    replies in request order, and an HTTP/1.0 request (no ``Connection``
    header) must be answered ``Connection: close`` and hung up on.  With
    ``config.adaptive`` the smoke additionally keeps load on the server
    until the SLO controller has adjusted at least one knob (window / batch
    / admission), failing if it never does.  Raises ``RuntimeError`` on any
    non-200, mismatched payload, or unclean shutdown; returns a summary dict
    on success.  This is the CI serving smoke test and the ``kbqa serve
    --smoke`` implementation.

    ``procs > 1`` runs the same client traffic against a
    :class:`~repro.serve.multiproc.MultiProcessServer` — N forked replicas
    sharing the port via ``SO_REUSEPORT`` — and additionally asserts every
    replica process exited (the CI ``--procs 2`` smoke step).  The summary
    then carries ``respawned``, the replicas the supervisor replaced, so the
    CI replica-kill step can fail when the fault never fired.  With
    ``KBQA_FAULTS`` armed the smoke first waits (bounded) for that
    replacement: its clients are strict — no retries — and a connection
    accepted by a replica about to die would be reset.
    """
    import json
    import multiprocessing
    import socket
    import urllib.error
    import urllib.parse
    import urllib.request

    if not questions:
        raise ValueError("need at least one question for the smoke run")

    def post(url: str, payload: dict) -> tuple[int, dict]:
        data = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode("utf-8"))

    def raw_exchange(url: str, payload: bytes) -> list[tuple[bytes, dict]]:
        """Send ``payload``, read to the server's close; (head, JSON) per reply."""
        parts = urllib.parse.urlsplit(url)
        with socket.create_connection((parts.hostname, parts.port), timeout=30) as sock:
            sock.sendall(payload)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        replies = []
        while data:
            head, _, rest = data.partition(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
            replies.append((head, json.loads(rest[:length])))
            data = rest[length:]
        return replies

    def answer_bytes(question: str, version: str, *headers: str) -> bytes:
        body = json.dumps({"question": question}).encode("utf-8")
        lines = [f"POST /answer {version}", f"Content-Length: {len(body)}", *headers]
        return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body

    failures: list[str] = []
    statuses: list[int] = []
    lock = threading.Lock()

    if procs > 1:
        from repro.serve.multiproc import MultiProcessServer

        front: "BackgroundServer | MultiProcessServer" = MultiProcessServer(
            system, config, procs=procs
        )
    else:
        front = BackgroundServer(system, config)

    with front as bg:
        if procs > 1 and faults_active():
            deadline = time.monotonic() + 10.0
            while not bg.respawned and time.monotonic() < deadline:
                time.sleep(0.05)
        answer_url = bg.url + "/answer"

        def client(worker: int) -> None:
            for i in range(requests_per_thread):
                question = questions[(worker + i) % len(questions)]
                try:
                    status, payload = post(answer_url, {"question": question})
                except Exception as error:  # transport failure is a failure
                    with lock:
                        failures.append(f"/answer transport error: {error!r}")
                    continue
                with lock:
                    statuses.append(status)
                    if status != 200:
                        failures.append(f"/answer -> {status}: {payload}")
                    elif payload.get("question") != question:
                        failures.append(f"/answer echoed {payload.get('question')!r}")

        workers = [
            threading.Thread(target=client, args=(n,), name=f"smoke-{n}")
            for n in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            if worker.is_alive():
                failures.append(f"client thread {worker.name} hung")
        expected = threads * requests_per_thread
        if len(statuses) + sum("transport" in f for f in failures) != expected:
            failures.append(
                f"only {len(statuses)}/{expected} /answer responses recorded"
            )

        status, batch = post(bg.url + "/batch", {"questions": questions[:4] * 2})
        if status != 200 or len(batch.get("results", [])) != len(questions[:4] * 2):
            failures.append(f"/batch -> {status}: {batch}")

        try:
            pair = [questions[0], questions[-1]]
            replies = raw_exchange(
                bg.url,
                answer_bytes(pair[0], "HTTP/1.1")
                + answer_bytes(pair[1], "HTTP/1.1", "Connection: close"),
            )
            if [body.get("question") for _head, body in replies] != pair or not all(
                head.startswith(b"HTTP/1.1 200 ") for head, _body in replies
            ):
                failures.append(f"pipelined pair came back as {replies}")
            replies = raw_exchange(bg.url, answer_bytes(pair[0], "HTTP/1.0"))
            if len(replies) != 1 or b"connection: close" not in replies[0][0].lower():
                failures.append(f"HTTP/1.0 request was not answered-and-closed: {replies}")
        except (OSError, ValueError, IndexError) as error:
            # a timeout here is the server holding the connection open
            failures.append(f"raw-socket exchange failed: {error!r}")

        controller_adjustments = 0
        if config is not None and config.adaptive:
            # keep traffic flowing until the controller proves it is alive:
            # p99 well under the SLO must widen the window (or the admission
            # target must move) within a few 250 ms control intervals
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                for i in range(16):
                    post(answer_url, {"question": questions[i % len(questions)]})
                with urllib.request.urlopen(bg.url + "/stats", timeout=30) as resp:
                    live = json.loads(resp.read().decode("utf-8"))
                controller = live.get("controller") or {}
                controller_adjustments = controller.get("adjustments", 0)
                if controller_adjustments:
                    break
            if not controller_adjustments:
                failures.append("adaptive controller never adjusted a knob")

        from repro.serve.metrics import parse_prometheus_text

        with urllib.request.urlopen(bg.url + "/metrics", timeout=30) as resp:
            metrics_text = resp.read().decode("utf-8")
        try:
            metrics_series = parse_prometheus_text(metrics_text)
        except ValueError as error:
            metrics_series = {}
            failures.append(f"/metrics does not parse: {error}")
        else:
            for required in ("kbqa_stage_latency_ms_bucket", "kbqa_serve_events_total"):
                if required not in metrics_series:
                    failures.append(f"/metrics is missing {required}")

        with urllib.request.urlopen(bg.url + "/healthz", timeout=30) as resp:
            if resp.status != 200:
                failures.append(f"/healthz -> {resp.status}")
        with urllib.request.urlopen(bg.url + "/stats", timeout=30) as resp:
            stats = json.loads(resp.read().decode("utf-8"))
        thread = bg._thread if isinstance(bg, BackgroundServer) else None
        respawned = bg.respawned if procs > 1 else 0

    if thread is not None and thread.is_alive():
        failures.append("server thread still alive after shutdown")
    if procs > 1:
        leftovers = [c for c in multiprocessing.active_children() if c.is_alive()]
        if leftovers:
            failures.append(
                f"{len(leftovers)} server process(es) still alive after shutdown"
            )
    if failures:
        raise RuntimeError("serving smoke failed: " + "; ".join(failures))
    serve_stats = stats["serve"]
    summary = {
        "requests": len(statuses),
        "http_200": sum(1 for s in statuses if s == 200),
        "serve_requests": serve_stats["requests"],
        "inline_hits": serve_stats["inline_hits"],
        "coalesced": serve_stats["coalesced"],
        "batches": serve_stats["batches"],
        "max_batch_seen": serve_stats["max_batch_seen"],
        "executor": serve_stats["executor"],
        "procs": procs,
        "metrics_series": len(metrics_series),
        "clean_shutdown": True,
    }
    if procs > 1:
        summary["respawned"] = respawned
    if config is not None and config.adaptive:
        summary["controller_adjustments"] = controller_adjustments
        summary["batch_window_ms"] = serve_stats["batch_window_ms"]
        summary["max_pending"] = serve_stats["max_pending"]
    return summary
