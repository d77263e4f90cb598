"""Asyncio serving core: the cache-hit lane + micro-batching over the sync answerer.

The paper answers one BFQ in tens of milliseconds (Table 14); serving heavy
traffic is then a *concurrency* problem, and real question traffic is
heavily duplicated (the head of the query distribution).  This module turns
the synchronous ``answer_many`` batch API into an asyncio service with three
mechanisms:

* **cache-hit lane** — a question the target's answer cache already holds
  is answered at the instant it is submitted: one tokenization (the
  normalized key, which is the cache key), one probe, and the result is
  returned — no future, no queue entry, no dispatcher wake-up.
  :meth:`AsyncAnswerer.answer_nowait` is the same step without a
  coroutine, for the HTTP front.  Everything below is what a *miss* takes.
* **micro-batching** — every miss is one queue entry with a loop future of
  its own; pending entries are drained into ``answer_many`` batches of up
  to ``max_batch`` and evaluated *inline on the event loop*, one batch at a
  time, amortizing the serving-cache probes across the batch.  A queue
  entry carries its key, and when that key is the target's own cache key
  (the lane's condition below) the batch hands the keys over,
  ``answer_many(questions, keys)``, so a miss is tokenized once, at
  submission.  A duplicate miss costs a queue slot, never a second Eq 7
  evaluation while the answer cache is on: in the same batch
  ``answer_many`` deduplicates it, in a later one it is a cache hit.  The
  dispatcher yields to the loop between two batches, so socket reads,
  deadlines and writes interleave with a long queue.  Eq 7 is pure
  Python: under the GIL an evaluation thread bought no parallelism, only a
  hand-off each way (DESIGN.md "Why serving evaluates on the loop").  One
  server process is the only serving topology.
* **admission control** — at most ``max_pending`` evaluations may be queued
  or executing; beyond that :meth:`AsyncAnswerer.answer` raises
  :class:`OverloadedError` *immediately* (the deterministic overload
  response the HTTP front maps to 503), instead of letting latency grow
  without bound.

Every knob is a fixed :class:`ServeConfig` value: nothing retunes them while
serving (DESIGN.md "Control plane" records why the SLO controller went).

The failure model (``tests/test_fault_tolerance.py``): a request may carry
a **deadline** — past it the caller gets :class:`DeadlineExceeded` (HTTP
504) at the first point the loop is free: between two batches for a queued
request, which the next batch then leaves out, and when its own batch
returns for one being evaluated, which still finishes and warms the answer
cache.  A result that lands in the same loop step as the deadline loses to
it: the waiter reads the loop clock after its future resolves.  A request
cancelled while queued is left out too.  An exception out of the target
fails exactly the batch that hit it, and reaches only waiters still
waiting, so nothing is left unretrieved.

Correctness under live KB updates needs no quiesce.  :meth:`AsyncAnswerer.
apply` runs its mutation synchronously on the loop, which is always between
two batches: every batch is computed at one KB state, and a request
admitted after ``apply()`` returned is evaluated after the write.  A write
that bypasses ``apply()`` — a library call or the KB's change stream on
another thread — ends in :meth:`AsyncAnswerer.invalidate`, which bumps an
epoch counter from any thread.  A batch reads the counter before and after
evaluating and **re-evaluates**, with no cap, until no bump landed in
between, so a result computed before an ``invalidate()`` returned is never
delivered (``stale_delivered`` stays 0).

The lane needs no epoch check of its own.  A hit is one read of the
target's answer cache at one instant on the loop thread, so it is exactly
what a batch dispatched at that instant would have read from the same
cache.  The cache in turn never outlives a write: the target's KB change
listener clears it *before* the serving epoch bump (``KBQA`` subscribes at
construction, the server after it), and the answerer's generation counter
refuses to insert a result whose evaluation straddled a clear.  There is no
switch for the lane: it is on exactly when the target exposes
``cached_answer(question, key)``, whose key is :func:`normalized_key`; a
target without the probe (a wrapper, a scripted test double) keeps every
request on the queue path.

All mutable state is confined to the event loop; the only cross-thread
entry point is ``invalidate``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import threading
import time
from collections import deque
from dataclasses import InitVar, dataclass, replace
from typing import Callable, Protocol, Sequence

from repro.core.online import AnswerResult
from repro.nlp.tokenizer import tokenize
from repro.serve.metrics import ServeMetrics


class AnswerTarget(Protocol):
    """Anything with the batch answering API (``KBQA``, ``OnlineAnswerer``).

    A target that also exposes ``cached_answer(question, key)`` is called as
    ``answer_many(questions, keys)``, each key the question's
    :func:`normalized_key`; any other target gets the questions alone.
    """

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

    The HTTP front maps this to a ``504``.  A request that expires while
    queued is left out of the next batch; one whose batch is already
    running is not cancelled — the batch carries other requests — the
    expired caller just stops waiting.
    """


def normalized_key(question: str) -> str:
    """The normalized question: tokenized-and-rejoined question text.

    Identical to the :class:`~repro.core.online.OnlineAnswerer` answer-cache
    key, so the serving layer and the answerer agree on which questions are
    "the same".
    """
    return " ".join(tokenize(question))


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Tuning knobs for :class:`AsyncAnswerer` (defaults favor tests/laptops).

    ``max_batch`` bounds queue entries per ``answer_many`` dispatch;
    ``max_pending`` is the admission bound on queue entries waiting or
    executing.

    The failure-model knob: ``deadline_ms`` is the default per-request
    deadline, a finite number of milliseconds (0 disables; the HTTP front's ``X-KBQA-Deadline-Ms`` header
    overrides per request) after which the caller gets
    :class:`DeadlineExceeded` (HTTP 504) instead of waiting forever.
    """

    max_batch: int = 16
    max_pending: int = 256
    deadline_ms: float = 0.0
    # Validated and ignored: batches evaluate on the event loop, so there is
    # no pool to size or pick.  Accepted only for callers written against the
    # retired thread pool; they go with ROADMAP item 1 (i).
    workers: InitVar[int | None] = None
    executor: InitVar[str | None] = None

    def __post_init__(self, workers: int | None, executor: str | None) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if not (math.isfinite(self.deadline_ms) and self.deadline_ms >= 0):
            raise ValueError(
                f"deadline_ms must be a finite number >= 0, got {self.deadline_ms}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor not in (None, "thread", "serial"):
            raise ValueError(
                f"executor must be 'thread', 'serial' or None, got {executor!r} "
                "(batches evaluate inline on the event loop; there is no "
                "process executor)"
            )


@dataclass(slots=True)
class ServeStats:
    """Monotonic serving counters (exposed raw on ``/stats``)."""

    requests: int = 0  # accepted question submissions
    inline_hits: int = 0  # requests answered on the loop from the answer cache
    coalesced: int = 0  # answer_many duplicates of a miss the same call submitted
    rejected: int = 0  # admission-control rejections
    batches: int = 0  # answer_many dispatches that delivered results
    evaluated: int = 0  # questions sent through answer_many (incl. retries)
    stale_retries: int = 0  # re-evaluations forced by a mid-flight invalidation
    stale_delivered: int = 0  # always 0: re-evaluation has no cap (kept for readers)
    invalidations: int = 0  # epoch bumps observed
    applies: int = 0  # writes run on the loop through apply()
    max_batch_seen: int = 0
    deadline_expired: int = 0  # requests abandoned at their deadline (504s)
    degraded: int = 0  # always 0: nothing serves degraded (kept for readers; ROADMAP 1A)
    fallback_served: int = 0  # answers recovered by the semantic fallback lane
    fallback_abstained: int = 0  # unanswered despite the lane being enabled


class AsyncAnswerer:
    """Cache-hit lane + micro-batching asyncio front over a synchronous answerer.

    Lifecycle: ``await start()`` inside a running event loop (or use
    ``async with``), submit with :meth:`answer` / :meth:`answer_many`,
    ``await stop()`` to shut down.  One instance binds to one event loop.
    """

    def __init__(self, target: AnswerTarget, config: ServeConfig | None = None) -> None:
        self.target = target
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self.metrics = ServeMetrics()
        self._fallback_enabled = bool(getattr(target, "fallback_enabled", False))
        # The cache-hit lane's probe: only a target that exposes its answer cache.
        probe = getattr(target, "cached_answer", None)
        self._probe: Callable[[str | None, str], AnswerResult | None] | None = (
            probe if callable(probe) else None
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        # (key, question, tenant, t_enq, future, expires) items not yet
        # dispatched: one per miss, each with the loop future its request
        # awaits and its deadline on the loop clock (inf: none)
        self._queue: deque = deque()
        self._pending = 0  # queued + executing entries (admission gauge)
        # bumped by invalidate() from any thread, under the lock so that no
        # two writers' bumps collapse into one
        self._epoch = 0
        self._epoch_lock = threading.Lock()
        self._running = False
        self._dispatcher: asyncio.Task | None = None
        self._wakeup: asyncio.Event | None = None

    # -- Lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and start the dispatcher."""
        if self._running:
            raise RuntimeError("AsyncAnswerer already started")
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._running = True
        self._dispatcher = self._loop.create_task(
            self._dispatch_loop(), name="kbqa-serve-dispatch"
        )

    async def stop(self) -> None:
        """Stop admitting, stop dispatching, fail queued requests.

        No batch is ever caught halfway: the dispatcher is cancelled at one
        of its awaits, which lie between two batches.
        """
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
        # Every queued-but-undispatched request fails deterministically.
        while self._queue:
            future = self._queue.popleft()[4]
            self._pending -= 1
            if not future.done():
                future.set_exception(RuntimeError("serving stopped"))

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
        key: str | None = None,
    ) -> AnswerResult:
        """Answer one question: the cache-hit lane, else micro-batching.

        Raises :class:`OverloadedError` when admission control rejects the
        request; otherwise resolves to exactly what the synchronous path
        would return (equivalence-tested).  A question the target's answer
        cache holds returns at once (:meth:`answer_nowait`) and is never
        rejected, throttled or expired — it costs the box no evaluation.
        ``deadline_s`` bounds the wait (defaulting from
        ``config.deadline_ms`` when that is > 0): past it
        :class:`DeadlineExceeded` is raised and the caller walks away.  A
        request still queued then is left out of the next batch; one whose
        batch is running is still evaluated and warms the answer cache.

        ``tenant`` attributes the request to a client (the HTTP front passes
        the ``X-KBQA-Client`` header) in the per-tenant metrics.  A caller
        that already holds the question's ``key`` passes it, as to
        :meth:`answer_nowait`.
        """
        if not self._running:
            raise RuntimeError("AsyncAnswerer is not running (call start())")
        started = time.monotonic()
        if key is None:
            key = normalized_key(question)
        hit = self._lane_hit(question, key, tenant, started)
        if hit is not None:
            return hit
        if deadline_s is None and self.config.deadline_ms > 0:
            deadline_s = self.config.deadline_ms / 1000.0
        if tenant is not None:
            self.metrics.tenant_inc(tenant, "requests")
        max_pending = self.config.max_pending
        if self._pending >= max_pending:
            self.stats.rejected += 1
            if tenant is not None:
                self.metrics.tenant_inc(tenant, "rejected")
            raise OverloadedError(f"serving queue full ({max_pending} pending evaluations)")
        loop = self._loop
        assert loop is not None and self._wakeup is not None
        future: asyncio.Future = loop.create_future()
        expires = math.inf if deadline_s is None else loop.time() + deadline_s
        self._queue.append((key, question, tenant, time.monotonic(), future, expires))
        self._pending += 1
        self.stats.requests += 1
        self._wakeup.set()
        return await self._await_result(future, expires, deadline_s)

    def answer_nowait(
        self,
        question: str | None,
        tenant: str | None = None,
        *,
        key: str | None = None,
    ) -> AnswerResult | None:
        """The cache-hit lane as a plain call: the answer, or None.

        None means "take the queue" — the caller follows up with
        :meth:`answer`, which is what counts, admits and evaluates a miss;
        nothing is recorded here for it.  A hit is a completed request
        (``requests``, ``inline_hits``, the ``total`` histogram, the
        tenant's ``requests``/``completed``).  Event-loop only, like every
        other entry point.  A caller that already holds the question's
        ``key`` passes it; ``question=None`` with a ``key`` returns the
        cache's own entry, in the spelling that filled it (the HTTP front
        echoes the asked spelling itself).
        """
        if self._probe is None or not self._running:
            return None
        started = time.monotonic()
        if key is None:
            key = normalized_key(question)
        return self._lane_hit(question, key, tenant, started)

    def _lane_hit(
        self, question: str | None, key: str, tenant: str | None, started: float
    ) -> AnswerResult | None:
        """Probe the target's answer cache at this instant on the loop."""
        if self._probe is None:
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
        self, future: asyncio.Future, expires: float, deadline_s: float | None
    ) -> AnswerResult:
        """Await this request's own waiter future, abandoning it at
        ``expires`` (loop clock).

        The future belongs to this request alone, so a timeout (or a
        cancelled caller) cancels it and nothing else: the dispatcher finds
        it done and leaves it out of the next batch, or the running batch
        skips it.  The deadline wins over an outcome that lands in the same
        loop step as its timer — a caller whose deadline passed during an
        inline batch gets :class:`DeadlineExceeded`, whether or not that
        batch carried its question — because the loop clock is read again
        once the future has resolved: the task's wake-up can run before the
        timer's callback in that step.  That check is also what turns the
        dispatcher's expiry of a queued request (an empty result) into
        :class:`DeadlineExceeded`.
        """
        if deadline_s is None:
            return await future
        loop = self._loop
        assert loop is not None
        try:
            async with asyncio.timeout_at(expires):
                result = await future
            if loop.time() < expires:
                return result
        except TimeoutError:
            pass
        except Exception:  # the batch failed: the deadline still wins a tie
            if loop.time() < expires:
                raise
        self.stats.deadline_expired += 1
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

        Each distinct missed key is submitted once, in its first spelling,
        and its result goes to every duplicate in the duplicate's own
        spelling; the duplicates count as ``coalesced`` requests.
        Admission is checked for the *whole* batch up front: if the
        distinct misses cannot fit the remaining capacity, the batch is
        rejected before any of it is answered or enqueued — a 503'd client
        batch must shed load, not consume ``max_pending`` evaluations whose
        results nobody reads.
        (Individual submissions can still race other clients for the last
        slots; that narrow window keeps the per-call admission check
        authoritative.)
        """
        if not self._running:
            raise RuntimeError("AsyncAnswerer is not running (call start())")
        started = time.monotonic()
        keys = [normalized_key(q) for q in questions]
        lane = self._probe
        hits = [lane(q, k) if lane else None for q, k in zip(questions, keys)]
        missed: dict[str, str] = {}  # key -> its first spelling
        for question, key, hit in zip(questions, keys, hits):
            if hit is None:
                missed.setdefault(key, question)
        max_pending = self.config.max_pending
        free = max_pending - self._pending
        if len(missed) > free:
            self.stats.rejected += len(questions)
            if tenant is not None:
                self.metrics.tenant_inc(tenant, "rejected", len(questions))
            raise OverloadedError(
                f"batch needs {len(missed)} evaluations but only {max(free, 0)} "
                f"of {max_pending} slots are free"
            )
        for hit in hits:
            if hit is not None:
                self._record_hit(hit, tenant, started)
        duplicates = hits.count(None) - len(missed)
        self.stats.requests += duplicates
        self.stats.coalesced += duplicates
        if tenant is not None and duplicates:
            self.metrics.tenant_inc(tenant, "requests", duplicates)
        answered = dict(
            zip(
                missed,
                await asyncio.gather(
                    *(
                        self.answer(q, deadline_s=deadline_s, tenant=tenant, key=k)
                        for k, q in missed.items()
                    )
                ),
            )
        )
        if tenant is not None and duplicates:
            self.metrics.tenant_inc(tenant, "completed", duplicates)
        results = []
        for question, key, hit in zip(questions, keys, hits):
            if hit is None:
                hit = answered[key]
                if hit.question != question:
                    hit = replace(hit, question=question)
            results.append(hit)
        return results

    # -- Invalidation + writes ---------------------------------------------

    def invalidate(self) -> None:
        """Bump the serving epoch (thread-safe, from any thread).

        Call after any KB mutation visible to the target answerer.  A batch
        whose evaluation overlapped the bump re-evaluates before resolving,
        so a request is never answered from a KB state older than the last
        ``invalidate()`` that returned before its batch finished.  The HTTP
        server wires the KB backend's change stream here.
        """
        with self._epoch_lock:
            self._epoch += 1
            self.stats.invalidations += 1

    async def apply(self, mutation: Callable[[], object]) -> object:
        """Run ``mutation`` on the loop, between two batches; returns its result.

        Never suspends: the mutation, its synchronous change listeners
        (expansion refresh, cache clears) and the epoch bump run in one loop
        step, so no batch overlaps the write, a request admitted after the
        call returns is evaluated after it, and a cancelled caller cannot
        interrupt it halfway.
        """
        if not self._running:
            raise RuntimeError("AsyncAnswerer is not running (call start())")
        result = mutation()
        self.invalidate()
        self.stats.applies += 1
        return result

    # -- Dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Evaluate the queue in bounded ``answer_many`` batches forever.

        One batch at a time, inline; the ``sleep(0)`` after each hands the
        loop to socket reads and writers before the next.  A deadline timer
        that fell due during the batch would run only behind the next one
        (asyncio queues due timers after the ready callbacks), so before it
        yields the dispatcher expires every queued request whose deadline
        has passed: the waiter raises first, and its done future keeps it
        out of the next batch, as it does a cancelled request's.
        """
        loop, queue, wakeup = self._loop, self._queue, self._wakeup
        assert loop is not None and wakeup is not None
        max_batch = self.config.max_batch
        while True:
            if not queue:
                wakeup.clear()
                await wakeup.wait()
                continue
            batch = []
            now = time.monotonic()
            while queue and len(batch) < max_batch:
                item = queue.popleft()
                self.metrics.observe("queue_wait", (now - item[3]) * 1000.0)
                if item[4].done():  # its caller expired or left while queued
                    self._pending -= 1
                else:
                    batch.append(item)
            if batch:
                self._run_batch(batch)
                clock = loop.time()  # the clock deadlines are set on
                for item in queue:
                    if item[5] <= clock and not item[4].done():
                        item[4].set_result(None)  # _await_result raises DeadlineExceeded
                await asyncio.sleep(0)

    def _run_batch(self, batch: list[tuple]) -> None:
        """Evaluate one micro-batch on the loop and resolve its waiters.

        The freshness invariant lives in the re-evaluation loop: a result
        set is delivered only if no :meth:`invalidate` bumped the epoch while
        it was computed — a write from another thread can land mid-batch —
        otherwise the batch re-evaluates against the (already invalidated,
        hence refreshed) target caches, as often as it takes.

        Every waiter still waiting gets its result (or the target's
        exception); one whose deadline passed during the batch wins its
        tie in :meth:`_await_result`.  The keys go to the target only when
        they are its own cache keys (the lane's condition), which spares it
        the second tokenization.
        """
        questions = [item[1] for item in batch]
        if self._probe is None:
            args: tuple = (questions,)
        else:
            args = (questions, [item[0] for item in batch])
        try:
            while True:
                epoch = self._epoch
                self.stats.evaluated += len(questions)  # a failing attempt counts too
                eval_start = time.monotonic()
                results = self.target.answer_many(*args)
                self.metrics.observe(
                    "evaluate", (time.monotonic() - eval_start) * 1000.0
                )
                if epoch == self._epoch:
                    break
                self.stats.stale_retries += 1
            self.stats.batches += 1
            self.stats.max_batch_seen = max(self.stats.max_batch_seen, len(questions))
            done = time.monotonic()
            for (_key, _question, tenant, t_enq, future, _), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)
                self._count_fallback(result)
                self.metrics.observe_total((done - t_enq) * 1000.0)
                if tenant is not None:
                    self.metrics.tenant_inc(tenant, "completed")
        except Exception as error:  # target failure: fail the whole batch
            for _key, _question, tenant, _t_enq, future, _expires in batch:
                if not future.done():
                    future.set_exception(error)
                if tenant is not None:
                    self.metrics.tenant_inc(tenant, "failed")
        finally:
            self._pending -= len(batch)

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
                "epoch": self._epoch,
                "running": self._running,
                "max_batch": self.config.max_batch,
                "max_pending": self.config.max_pending,
            }
        )
        return data
