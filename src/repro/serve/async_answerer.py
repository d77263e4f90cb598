"""Asyncio serving core: coalescing + micro-batching over the sync answerer.

The paper answers one BFQ in tens of milliseconds (Table 14); serving heavy
traffic is then a *concurrency* problem, and real question traffic is
heavily duplicated (the head of the query distribution).  This module turns
the synchronous ``answer_many`` batch API into an asyncio service with four
mechanisms:

* **cache-hit lane** — a question the target's answer cache already holds
  is answered *on the event loop*, at the instant it is submitted: one
  tokenization (the coalescing key, which is also the cache key), one
  probe, and the result is returned — no future, no queue entry, no
  dispatcher wake-up, no executor hand-off.  :meth:`AsyncAnswerer.
  answer_nowait` is the same step without a coroutine, for the HTTP
  front.  Everything below is what a *miss* takes.
* **in-flight coalescing** — concurrent requests for the same *normalized*
  question (the answer-cache key) share one evaluation: the first arrival
  enqueues it, later arrivals await the same future.  N duplicates cost one
  Eq 7 evaluation and one executor round trip.  There is no switch for it.
* **micro-batching** — distinct pending questions are drained into
  ``answer_many`` batches of up to ``max_batch`` as soon as a worker slot
  is free (no linger window) and evaluated on a bounded thread pool,
  amortizing the event-loop/thread handoff and the serving-cache probes
  across the batch.  Threads are the only executor, and one server
  process is the only serving topology (DESIGN.md "Why serving has one
  executor").
* **admission control** — at most ``max_pending`` evaluations may be queued
  or executing; beyond that :meth:`AsyncAnswerer.answer` raises
  :class:`OverloadedError` *immediately* (the deterministic overload
  response the HTTP front maps to 503), instead of letting latency grow
  without bound.

Every knob is a fixed :class:`ServeConfig` value: nothing retunes them while
serving (DESIGN.md "Control plane" records why the SLO controller went).

The failure model (``tests/test_fault_tolerance.py``): a request may carry
a **deadline** — past it the caller gets :class:`DeadlineExceeded` (HTTP
504) while the evaluation itself keeps running for its coalesced siblings
and the answer cache; an exception out of the target fails exactly the
batch that hit it.

Correctness under live KB updates rests on an epoch protocol: every
invalidation (:meth:`AsyncAnswerer.invalidate`, thread-safe) bumps an epoch
counter on the event loop; a batch whose evaluation straddled a bump is
**re-evaluated** before its futures resolve, so any request admitted after
an invalidation can never observe a pre-invalidation answer.  Writers that
want stronger serialization use :meth:`AsyncAnswerer.apply`, which pauses
dispatch, drains in-flight batches, runs the mutation on the executor, bumps
the epoch and resumes — single-writer/multi-reader with quiescence.

The lane keeps that freshness without an epoch check of its own.  A hit is
one read of the target's answer cache at one instant on the loop thread —
where the epoch cannot move — so it is exactly what a batch dispatched at
that instant would have read from the same cache.  The cache in turn never
outlives a write: the target's KB change listener clears it *before* the
serving epoch bump is scheduled (``KBQA`` subscribes at construction, the
server after it), and the answerer's generation counter refuses to insert a
result whose evaluation straddled a clear.  The lane is shut while
:meth:`AsyncAnswerer.apply` holds the write pause, so a request issued
during a quiesced write waits for it like every other request.  There is no
switch for the lane: it is on exactly when it can be right — the target
exposes ``cached_answer(question, key)`` and the answerer's key function is
:func:`normalized_key`, the cache's own key — and a target without the
probe (a wrapper, a scripted test double) or a custom ``key=`` keeps every
request on the queue path.

All mutable state is confined to the event loop; the only cross-thread entry
points are ``invalidate`` (via ``call_soon_threadsafe``) and the pool
threads, which touch nothing but the target's own (locked) caches.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

from repro.core.online import AnswerResult
from repro.nlp.tokenizer import tokenize
from repro.serve.metrics import ServeMetrics


class AnswerTarget(Protocol):
    """Anything with the batch answering API (``KBQA``, ``OnlineAnswerer``)."""

    def answer_many(self, questions: Sequence[str]) -> list[AnswerResult]:
        ...


class OverloadedError(RuntimeError):
    """Admission control rejected the request: the evaluation queue is full.

    The HTTP front maps this to a ``503`` with a machine-readable body; an
    in-process caller should back off and retry.  Raised *before* the
    request consumes any evaluation resources.
    """


class DeadlineExceeded(RuntimeError):
    """The request's deadline expired before its evaluation completed.

    The HTTP front maps this to a ``504``.  The underlying evaluation is
    *not* cancelled — its batch carries other requests, and a coalesced
    duplicate may still be waiting on it — the expired caller just stops
    waiting.
    """


def _consume_failure(future: asyncio.Future) -> None:
    """Mark an abandoned future's exception as retrieved.

    A deadline-expired caller walks away from its future; if the batch
    later fails and nobody else awaits it, the loop would log an
    "exception was never retrieved" traceback at GC time.
    """
    if not future.cancelled():
        future.exception()


def normalized_key(question: str) -> str:
    """The coalescing key: tokenized-and-rejoined question text.

    Identical to the :class:`~repro.core.online.OnlineAnswerer` answer-cache
    key, so the serving layer and the answerer agree on which questions are
    "the same".
    """
    return " ".join(tokenize(question))


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Tuning knobs for :class:`AsyncAnswerer` (defaults favor tests/laptops).

    ``max_batch`` bounds distinct questions per ``answer_many`` dispatch;
    ``max_pending`` is the admission bound on evaluations queued or
    executing (coalesced joiners are free and never rejected);
    ``workers`` sizes the evaluation thread pool; ``executor`` is
    ``"thread"`` (None means the same) or ``"serial"`` (inline on the event
    loop; the determinism baseline for tests).  ``max_stale_retries``
    bounds re-evaluation when invalidations keep landing mid-flight — past
    it the freshest attempt is delivered anyway (bounded staleness instead
    of livelock under sustained writes).

    The failure-model knob: ``deadline_ms`` is the default per-request
    deadline, a finite number of milliseconds (0 disables; the HTTP front's ``X-KBQA-Deadline-Ms`` header
    overrides per request) after which the caller gets
    :class:`DeadlineExceeded` (HTTP 504) instead of waiting forever.
    """

    max_batch: int = 16
    max_pending: int = 256
    workers: int = 2
    max_stale_retries: int = 5
    executor: str | None = None
    deadline_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_stale_retries < 1:
            raise ValueError(
                f"max_stale_retries must be >= 1, got {self.max_stale_retries}"
            )
        if not (math.isfinite(self.deadline_ms) and self.deadline_ms >= 0):
            raise ValueError(
                f"deadline_ms must be a finite number >= 0, got {self.deadline_ms}"
            )
        if self.executor not in (None, "thread", "serial"):
            raise ValueError(
                f"executor must be 'thread', 'serial' or None, got "
                f"{self.executor!r} (batches evaluate on a pool of `workers` "
                f"threads; there is no process executor)"
            )


@dataclass(slots=True)
class ServeStats:
    """Monotonic serving counters (exposed raw on ``/stats``)."""

    requests: int = 0  # accepted question submissions
    inline_hits: int = 0  # requests answered on the loop from the answer cache
    coalesced: int = 0  # requests that joined an in-flight evaluation
    rejected: int = 0  # admission-control rejections
    batches: int = 0  # answer_many dispatches that delivered results
    evaluated: int = 0  # questions sent through answer_many (incl. retries)
    stale_retries: int = 0  # re-evaluations forced by a mid-flight invalidation
    stale_delivered: int = 0  # batches delivered at the retry cap (bounded staleness)
    invalidations: int = 0  # epoch bumps observed
    applies: int = 0  # quiesced writes through apply()
    max_batch_seen: int = 0
    deadline_expired: int = 0  # requests abandoned at their deadline (504s)
    degraded: int = 0  # answer-cache hits served in degraded mode (by the app)
    fallback_served: int = 0  # answers recovered by the semantic fallback lane
    fallback_abstained: int = 0  # unanswered despite the lane being enabled


class AsyncAnswerer:
    """Coalescing, micro-batching asyncio front over a synchronous answerer.

    Lifecycle: ``await start()`` inside a running event loop (or use
    ``async with``), submit with :meth:`answer` / :meth:`answer_many`,
    ``await stop()`` to drain and shut the executor down.  One instance
    binds to one event loop.
    """

    def __init__(
        self,
        target: AnswerTarget,
        config: ServeConfig | None = None,
        key: Callable[[str], str] = normalized_key,
    ) -> None:
        self.target = target
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self.metrics = ServeMetrics()
        self._fallback_enabled = bool(getattr(target, "fallback_enabled", False))
        self._key = key
        # The cache-hit lane's probe: only a target that exposes its answer
        # cache, and only when this answerer's key *is* that cache's key.
        probe = getattr(target, "cached_answer", None)
        self._probe: Callable[[str, str], AnswerResult | None] | None = (
            probe if callable(probe) and key is normalized_key else None
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        # the evaluation thread pool; stays None for executor="serial"
        self._executor: ThreadPoolExecutor | None = None
        # (key, question, future, tenant, t_enq) items not yet dispatched;
        # one entry per distinct in-flight key
        self._queue: deque = deque()
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending = 0  # queued + executing evaluations (admission gauge)
        self._epoch = 0
        self._running = False
        self._paused = False
        self._active_batches = 0
        self._batch_tasks: set[asyncio.Task] = set()
        self._dispatcher: asyncio.Task | None = None
        self._wakeup: asyncio.Event | None = None
        self._quiesced: asyncio.Event | None = None
        self._write_lock: asyncio.Lock | None = None

    # -- Lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and start the dispatcher."""
        if self._running:
            raise RuntimeError("AsyncAnswerer already started")
        self._loop = asyncio.get_running_loop()
        if self.config.executor != "serial":
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.workers, thread_name_prefix="kbqa-serve-eval"
            )
        self._wakeup = asyncio.Event()
        self._quiesced = asyncio.Event()
        self._quiesced.set()
        self._write_lock = asyncio.Lock()
        self._running = True
        self._dispatcher = self._loop.create_task(
            self._dispatch_loop(), name="kbqa-serve-dispatch"
        )

    async def stop(self) -> None:
        """Stop admitting, fail queued requests, drain batches, shut down."""
        if not self._running:
            return
        self._running = False
        assert self._dispatcher is not None
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._dispatcher = None
        # Queued-but-undispatched requests fail deterministically.
        while self._queue:
            key, _question, future, _tenant, _t_enq = self._queue.popleft()
            self._pending -= 1
            if self._inflight.get(key) is future:
                del self._inflight[key]
            if not future.done():
                future.set_exception(RuntimeError("serving stopped"))
        # In-flight batches are allowed to finish (their futures resolve).
        while self._active_batches:
            assert self._quiesced is not None
            self._quiesced.clear()
            await self._quiesced.wait()
        if self._executor is not None:
            self._executor.shutdown(wait=True)  # joins the pool threads
            self._executor = None

    async def __aenter__(self) -> "AsyncAnswerer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- Submission --------------------------------------------------------

    async def answer(
        self,
        question: str,
        *,
        deadline_s: float | None = None,
        tenant: str | None = None,
    ) -> AnswerResult:
        """Answer one question: the cache-hit lane, else coalescing +
        micro-batching.

        Raises :class:`OverloadedError` when admission control rejects the
        request; otherwise resolves to exactly what the synchronous path
        would return (equivalence-tested).  A question the target's answer
        cache holds returns at once (:meth:`answer_nowait`) and is never
        rejected, throttled or expired — it costs the box no evaluation.
        ``deadline_s`` bounds the wait (defaulting from
        ``config.deadline_ms`` when that is > 0): past it
        :class:`DeadlineExceeded` is raised and the caller walks away, but
        the evaluation itself keeps running — its batch carries other
        requests, and its result still warms the answer cache.

        ``tenant`` attributes the request to a client (the HTTP front passes
        the ``X-KBQA-Client`` header) in the per-tenant metrics.  Joining an
        in-flight evaluation is always free: a coalesced duplicate costs the
        box nothing, so admission never rejects it.
        """
        if not self._running:
            raise RuntimeError("AsyncAnswerer is not running (call start())")
        started = time.monotonic()
        key = self._key(question)
        hit = self._lane_hit(question, key, tenant, started)
        if hit is not None:
            return hit
        if deadline_s is None and self.config.deadline_ms > 0:
            deadline_s = self.config.deadline_ms / 1000.0
        if tenant is not None:
            self.metrics.tenant_inc(tenant, "requests")
        shared = self._inflight.get(key)
        if shared is not None:
            self.stats.requests += 1
            self.stats.coalesced += 1
            if tenant is not None:
                self.metrics.tenant_inc(tenant, "coalesced")
            result = await self._await_result(shared, deadline_s)
            return result if result.question == question else replace(result, question=question)
        max_pending = self.config.max_pending
        if self._pending >= max_pending:
            self.stats.rejected += 1
            if tenant is not None:
                self.metrics.tenant_inc(tenant, "rejected")
            raise OverloadedError(
                f"serving queue full ({max_pending} pending evaluations)"
            )
        assert self._loop is not None and self._wakeup is not None
        future: asyncio.Future = self._loop.create_future()
        self._inflight[key] = future
        self._queue.append((key, question, future, tenant, time.monotonic()))
        self._pending += 1
        self.stats.requests += 1
        self._wakeup.set()
        result = await self._await_result(future, deadline_s)
        return result if result.question == question else replace(result, question=question)

    def answer_nowait(
        self, question: str, tenant: str | None = None
    ) -> AnswerResult | None:
        """The cache-hit lane as a plain call: the answer, or None.

        None means "take the queue" — the caller follows up with
        :meth:`answer`, which is what counts, admits and evaluates a miss;
        nothing is recorded here for it.  A hit is a completed request
        (``requests``, ``inline_hits``, the ``total`` histogram, the
        tenant's ``requests``/``completed``).  Event-loop only, like every
        other entry point.
        """
        if self._probe is None or not self._running:
            return None
        started = time.monotonic()
        return self._lane_hit(question, self._key(question), tenant, started)

    def _lane_hit(
        self, question: str, key: str, tenant: str | None, started: float
    ) -> AnswerResult | None:
        """Probe the target's answer cache at this instant on the loop.

        Shut while :meth:`apply` pauses dispatch: a request issued during a
        quiesced write queues behind it instead of reading around it.
        """
        if self._probe is None or self._paused:
            return None
        hit = self._probe(question, key)
        if hit is not None:
            self._record_hit(hit, tenant, started)
        return hit

    def _record_hit(
        self, hit: AnswerResult, tenant: str | None, started: float
    ) -> None:
        """Count one lane hit as a completed request."""
        self.stats.requests += 1
        self.stats.inline_hits += 1
        self._count_fallback(hit)
        self.metrics.observe_total((time.monotonic() - started) * 1000.0)
        if tenant is not None:
            self.metrics.tenant_inc(tenant, "requests")
            self.metrics.tenant_inc(tenant, "completed")

    def _count_fallback(self, result: AnswerResult) -> None:
        """Fallback-lane accounting for one delivered result."""
        if getattr(result, "fallback", False):
            self.stats.fallback_served += 1
        elif self._fallback_enabled and not result.answered:
            self.stats.fallback_abstained += 1

    async def _await_result(
        self, future: asyncio.Future, deadline_s: float | None
    ) -> AnswerResult:
        """Await an evaluation future, abandoning it at the deadline.

        ``shield`` keeps the future alive either way — a timeout cancels
        only the waiter.  An abandoned future gets a consuming callback so
        a later batch failure is not logged as an unretrieved exception.
        """
        if deadline_s is None:
            return await asyncio.shield(future)
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout=deadline_s)
        except TimeoutError:
            self.stats.deadline_expired += 1
            future.add_done_callback(_consume_failure)
            raise DeadlineExceeded(
                f"deadline of {deadline_s * 1000.0:g} ms expired before the "
                "evaluation completed"
            ) from None

    async def answer_many(
        self,
        questions: Sequence[str],
        *,
        deadline_s: float | None = None,
        tenant: str | None = None,
    ) -> list[AnswerResult]:
        """Concurrent submission of a client batch (order preserved).

        Admission is checked for the *whole* batch up front: if the
        questions that need an evaluation — not in the answer cache, distinct
        and not yet in flight — cannot fit the remaining capacity, the
        batch is rejected before any of it is answered or enqueued — a
        503'd client batch must shed load, not consume ``max_pending``
        evaluations whose results nobody reads.
        (Individual submissions can still race other clients for the last
        slots; that narrow window keeps the per-call admission check
        authoritative.)
        """
        if not self._running:
            raise RuntimeError("AsyncAnswerer is not running (call start())")
        started = time.monotonic()
        keys = [self._key(q) for q in questions]
        lane = None if self._paused else self._probe
        hits = [lane(q, k) if lane else None for q, k in zip(questions, keys)]
        missed = [k for k, hit in zip(keys, hits) if hit is None]
        needed = len(set(missed) - self._inflight.keys())
        max_pending = self.config.max_pending
        free = max_pending - self._pending
        if needed > free:
            self.stats.rejected += len(questions)
            if tenant is not None:
                self.metrics.tenant_inc(tenant, "rejected", len(questions))
            raise OverloadedError(
                f"batch needs {needed} evaluations but only {max(free, 0)} "
                f"of {max_pending} slots are free"
            )
        for hit in hits:
            if hit is not None:
                self._record_hit(hit, tenant, started)
        evaluated = iter(
            await asyncio.gather(
                *(
                    self.answer(q, deadline_s=deadline_s, tenant=tenant)
                    for q, hit in zip(questions, hits)
                    if hit is None
                )
            )
        )
        return [hit if hit is not None else next(evaluated) for hit in hits]

    # -- Invalidation + writes ---------------------------------------------

    def invalidate(self) -> None:
        """Bump the serving epoch (thread-safe).

        Call after any KB mutation visible to the target answerer.  Batches
        whose evaluation overlapped the bump re-evaluate before resolving,
        so requests admitted after this call never see pre-invalidation
        answers.  The HTTP server wires the KB backend's change stream here.
        """
        loop = self._loop
        if loop is None:
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            self._invalidate_on_loop()
        else:
            loop.call_soon_threadsafe(self._invalidate_on_loop)

    def _invalidate_on_loop(self) -> None:
        self._epoch += 1
        self.stats.invalidations += 1

    async def apply(self, mutation: Callable[[], object]) -> object:
        """Run ``mutation`` with write-quiescence; returns its result.

        Dispatch pauses, in-flight batches drain, the mutation runs off the
        event loop (so synchronous change listeners — expansion refresh,
        cache clears — never block it), the epoch bumps, dispatch resumes.
        Writers serialize against each other on an async lock.
        """
        if not self._running:
            raise RuntimeError("AsyncAnswerer is not running (call start())")
        assert self._write_lock is not None and self._loop is not None
        async with self._write_lock:
            self._paused = True
            try:
                while self._active_batches:
                    assert self._quiesced is not None
                    self._quiesced.clear()
                    await self._quiesced.wait()
                # serial has no pool of its own: the loop's default one
                result = await self._loop.run_in_executor(self._executor, mutation)
                self._invalidate_on_loop()
                self.stats.applies += 1
                return result
            finally:
                self._paused = False
                assert self._wakeup is not None
                self._wakeup.set()

    # -- Dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain the queue into bounded ``answer_many`` batches forever."""
        assert self._wakeup is not None and self._loop is not None
        worker_slots = asyncio.Semaphore(self.config.workers)
        max_batch = self.config.max_batch
        while True:
            while not self._queue or self._paused:
                self._wakeup.clear()
                if self._queue and not self._paused:
                    break  # racing set() between check and clear()
                await self._wakeup.wait()
            # Acquire the worker slot *before* popping: the only cancellation
            # points are awaits, so a stop() can never strand a popped batch.
            await worker_slots.acquire()
            size = min(len(self._queue), max_batch)
            if size == 0 or self._paused:
                worker_slots.release()
                continue
            batch = [self._queue.popleft() for _ in range(size)]
            now = time.monotonic()
            for item in batch:
                self.metrics.observe("queue_wait", (now - item[4]) * 1000.0)
            self._active_batches += 1
            task = self._loop.create_task(self._run_batch(batch, worker_slots))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(
        self,
        batch: list[tuple[str, str, asyncio.Future, str | None, float]],
        worker_slots: asyncio.Semaphore,
    ) -> None:
        """Evaluate one micro-batch; deliver or retry.

        The batch runs on a pool thread, or — for ``executor="serial"`` —
        inline (blocks the loop; the determinism baseline for tests and a
        degenerate single-user mode).

        The freshness invariant lives in the retry loop: a result set is
        delivered only if the epoch did not change between dispatch and
        completion, otherwise the batch re-evaluates against the (already
        invalidated, hence refreshed) target caches.  Retries are capped at
        ``max_stale_retries`` so a writer mutating faster than one epoch
        bump per evaluation degrades to *bounded staleness* (the freshest
        attempt is delivered, ``stale_delivered`` counts it) instead of
        livelocking the batch's futures.
        """
        questions = [item[1] for item in batch]
        try:
            retries = 0
            while True:
                epoch = self._epoch
                eval_start = time.monotonic()
                if self._executor is None:
                    results = self.target.answer_many(questions)
                else:
                    results = await asyncio.wrap_future(
                        self._executor.submit(self.target.answer_many, questions)
                    )
                self.metrics.observe(
                    "evaluate", (time.monotonic() - eval_start) * 1000.0
                )
                self.stats.evaluated += len(questions)
                if epoch == self._epoch:
                    break
                self.stats.stale_retries += 1
                retries += 1
                if retries >= self.config.max_stale_retries:
                    self.stats.stale_delivered += 1
                    break
            self.stats.batches += 1
            self.stats.max_batch_seen = max(self.stats.max_batch_seen, len(questions))
            done = time.monotonic()
            for (key, _question, future, tenant, t_enq), result in zip(batch, results):
                if self._inflight.get(key) is future:
                    del self._inflight[key]
                if not future.done():
                    future.set_result(result)
                self._count_fallback(result)
                self.metrics.observe_total((done - t_enq) * 1000.0)
                if tenant is not None:
                    self.metrics.tenant_inc(tenant, "completed")
        except Exception as error:  # target failure: fail the whole batch
            for key, _question, future, tenant, _t_enq in batch:
                if self._inflight.get(key) is future:
                    del self._inflight[key]
                if not future.done():
                    future.set_exception(error)
                if tenant is not None:
                    self.metrics.tenant_inc(tenant, "failed")
        finally:
            self._pending -= len(batch)
            self._active_batches -= 1
            worker_slots.release()
            if self._active_batches == 0:
                assert self._quiesced is not None
                self._quiesced.set()

    # -- Introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """Counters + live gauges for ``/stats`` and the load harness.

        The counter block is *derived* from :class:`ServeStats` via
        ``dataclasses.asdict`` so a new counter field can never be silently
        dropped from the snapshot (``tests/test_serve_metrics.py`` asserts
        the invariant); gauges and config echoes are appended explicitly.
        """
        data: dict = dataclasses.asdict(self.stats)
        data.update(
            {
                "pending": self._pending,
                "inflight_keys": len(self._inflight),
                "active_batches": self._active_batches,
                "epoch": self._epoch,
                "running": self._running,
                "executor": self.config.executor or "thread",
                "workers": self.config.workers,
                "max_batch": self.config.max_batch,
                "max_pending": self.config.max_pending,
            }
        )
        return data
