"""Crash-safety contracts of the one serving process under real faults.

* requests carry **deadlines** (``DeadlineExceeded`` / HTTP 504) — a
  request whose deadline passes while it waits behind a stalled inline
  batch gets its 504 as soon as the loop is free again, before the next
  batch, and is left out of it; a malformed deadline header is a 400;
* under overload a cached question is a cache-hit-lane answer and an
  uncached one gets the 503: nothing is served or marked degraded.

Real stalls, real event loops.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time

import pytest

from repro.core.online import AnswerResult
from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.serve import (
    AsyncAnswerer,
    DeadlineExceeded,
    OverloadedError,
    ServeConfig,
)
from repro.serve.app import KBQAServer
from repro.serve.http import HTTPRequest

def _result(question: str, value: str) -> AnswerResult:
    return AnswerResult(
        question=question,
        value=value,
        values=(value,),
        score=1.0,
        entity="e",
        template="t",
        predicate=None,
        found_predicate=True,
    )


class SlowTarget:
    """Every batch takes ``delay_s`` — the deadline tests' stalled backend."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def answer_many(self, questions):
        time.sleep(self.delay_s)
        return [_result(q, "slow") for q in questions]


# -- Serving: deadlines ------------------------------------------------------


class TestServingCrashRetry:
    def test_deadline_expires_with_stalled_backend(self, serve_system, suite):
        """A request whose deadline passes while its own batch stalls gets
        ``DeadlineExceeded`` once that batch returns.  Its evaluation is not
        cancelled: it completes and warms the answer cache, and the request
        queued behind it is evaluated next."""
        question = _answerable_question(suite, serve_system)
        serve_system.answerer.clear_caches()

        class StallsFirstBatch:
            """``serve_system`` whose first batch stalls; no probe."""

            calls = 0

            def answer_many(self, questions):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(0.3)
                return serve_system.answer_many(questions)

        async def main():
            config = ServeConfig(max_batch=1)
            async with AsyncAnswerer(StallsFirstBatch(), config) as answerer:
                stalled = asyncio.ensure_future(answerer.answer("too slow?"))
                with pytest.raises(DeadlineExceeded):
                    await answerer.answer(question, deadline_s=0.05)
                await stalled  # the stalled batch itself resolves
                while answerer.stats.batches < 2:
                    await asyncio.sleep(0.01)
                return dict(answerer.snapshot())

        snapshot = asyncio.run(main())
        assert snapshot["deadline_expired"] == 1
        assert snapshot["evaluated"] == 2  # the expired request was evaluated
        cached = serve_system.answerer.cached_answer(question)
        assert cached == serve_system.answer(question) and cached.answered

    @pytest.mark.parametrize("ahead", [0, 3], ids=["in-batch", "queued"])
    def test_a_batch_failing_after_its_waiter_expired_logs_nothing(self, ahead):
        """A waiter that expired is done, so the batch's exception reaches
        only futures someone reads: the loop's exception handler is never
        called, not even once the futures are collected.

        ``in-batch``: the deadline passes while the victim's own batch
        stalls, and the failure lands in the step the deadline wins.
        ``queued``: three stalled batches ahead of it, so it expires between
        the first two and is left out of every batch: the failing batch
        never runs."""

        class FailsLate:
            """Every batch stalls past the deadline; the victim's batch raises."""

            calls: list[list[str]] = []

            def answer_many(self, questions):
                self.calls.append(list(questions))
                time.sleep(0.15)
                if "victim?" in questions:
                    raise RuntimeError("evaluation failed")
                return [_result(q, "ok") for q in questions]

        target = FailsLate()
        names = [f"ahead {n}?" for n in range(ahead)]
        handled = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: handled.append(context)
            )
            async with AsyncAnswerer(target, ServeConfig(max_batch=1)) as answerer:
                before = [asyncio.ensure_future(answerer.answer(q)) for q in names]
                await asyncio.sleep(0)  # enqueued first
                with pytest.raises(DeadlineExceeded):
                    await answerer.answer("victim?", deadline_s=0.05)
                assert [(await task).value for task in before] == ["ok"] * ahead
                while answerer.snapshot()["pending"]:
                    await asyncio.sleep(0.01)  # until the victim's batch has failed
                return dict(answerer.snapshot())

        stats = asyncio.run(main())
        gc.collect()  # an unretrieved exception is reported when collected
        assert handled == []
        victim = [] if ahead else [["victim?"]]
        assert target.calls == [[q] for q in names] + victim
        assert stats["deadline_expired"] == 1 and stats["batches"] == ahead
        assert stats["evaluated"] == ahead + len(victim)  # a failed batch counts

    def test_a_queued_deadline_expires_before_the_next_batch(self):
        """Four requests ahead of a 50 ms deadline, one per 0.15 s batch: the
        deadline passes during the first batch, so the request expires as
        soon as that batch returns — before the second starts — and is left
        out of every batch: the dispatcher expires it before it yields."""
        stall_s = 0.15

        class Stalls:
            calls: list[list[str]] = []

            def answer_many(self, questions):
                self.calls.append(list(questions))
                time.sleep(stall_s)
                return [_result(q, "ok") for q in questions]

        target = Stalls()

        async def main():
            async with AsyncAnswerer(target, ServeConfig(max_batch=1)) as answerer:
                ahead = [
                    asyncio.ensure_future(answerer.answer(f"ahead {n}?")) for n in range(4)
                ]
                await asyncio.sleep(0)  # enqueued first
                asked = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    await answerer.answer("victim?", deadline_s=0.05)
                expired_after = time.monotonic() - asked
                calls_by_then = len(target.calls)
                assert [(await task).value for task in ahead] == ["ok"] * 4
                while answerer.snapshot()["pending"]:
                    await asyncio.sleep(0.01)
                return expired_after, calls_by_then, dict(answerer.snapshot())

        expired_after, calls_by_then, stats = asyncio.run(main())
        assert calls_by_then == 1 and expired_after < 2 * stall_s
        assert target.calls == [[f"ahead {n}?"] for n in range(4)]
        assert stats["evaluated"] == 4
        assert stats["deadline_expired"] == 1 and stats["pending"] == 0

    def test_config_default_deadline_applies(self):
        config = ServeConfig(deadline_ms=40.0)

        async def main():
            async with AsyncAnswerer(SlowTarget(0.4), config) as answerer:
                with pytest.raises(DeadlineExceeded):
                    await answerer.answer("slow by default?")
                return dict(answerer.snapshot())

        snapshot = asyncio.run(main())
        assert snapshot["deadline_expired"] == 1


# -- HTTP lifecycle: 504, 503 and the cache under overload --------------------


@pytest.fixture(scope="module")
def serve_system(suite) -> KBQA:
    """A trained system over a private KB copy (safe to mutate/fork)."""
    kb = compile_freebase_like(suite.world)
    return KBQA.train(kb, suite.corpus, suite.conceptualizer)


def _answerable_question(suite, system) -> str:
    for entity in suite.world.of_type("city"):
        question = f"what is the population of {entity.name}?"
        if system.answer(question).answered:
            return question
    raise AssertionError("no answerable city question in the suite")


def _route(server, method: str, path: str, body: dict | None = None, headers=None):
    request = HTTPRequest(
        method=method,
        path=path,
        headers=headers or {},
        body=json.dumps(body).encode() if body is not None else b"",
    )
    return asyncio.run(server._route(request))


class TestHTTPDeadlines:
    def test_deadline_exceeded_maps_to_504(self, serve_system):
        server = KBQAServer(serve_system, ServeConfig())

        async def expiring(_question, **_kwargs):
            raise DeadlineExceeded("deadline of 5 ms expired")

        server.answerer.answer = expiring
        status, payload = _route(
            server,
            "POST",
            "/answer",
            {"question": "anything?"},
            headers={"x-kbqa-deadline-ms": "5"},
        )
        assert status == 504
        assert payload["error"] == "deadline exceeded"

    # float() accepts "nan" and "inf", and nan <= 0 is false: both were
    # once served with no deadline at all
    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "nan", "inf"])
    def test_invalid_deadline_header_is_400(self, serve_system, raw):
        server = KBQAServer(serve_system, ServeConfig())
        status, payload = _route(
            server,
            "POST",
            "/answer",
            {"question": "anything?"},
            headers={"x-kbqa-deadline-ms": raw},
        )
        assert status == 400
        assert "deadline" in payload["error"].lower()

    def test_real_stall_times_out_through_the_route(self, serve_system):
        """End to end on the event loop: a stalled backend + header deadline
        produce a 504 from the route layer."""
        server = KBQAServer(SlowTargetSystem(), ServeConfig())

        async def main():
            await server.answerer.start()
            try:
                request = HTTPRequest(
                    method="POST",
                    path="/answer",
                    headers={"x-kbqa-deadline-ms": "40"},
                    body=json.dumps({"question": "too slow?"}).encode(),
                )
                return await server._route(request)
            finally:
                await server.answerer.stop()

        status, payload = asyncio.run(main())
        assert status == 504
        assert payload["error"] == "deadline exceeded"


class SlowTargetSystem:
    """Just enough KBQA surface for KBQAServer with a stalled answerer."""

    def __init__(self) -> None:
        self.answerer = SlowTarget(0.5)

    def answer_many(self, questions):
        return self.answerer.answer_many(questions)


def _routed(server, question: str):
    """Route one ``POST /answer`` through a started answerer whose admission
    slots are all taken — every request that reaches admission is refused."""

    async def main():
        await server.answerer.start()
        try:
            server.answerer._pending = server.answerer.config.max_pending  # full
            request = HTTPRequest(
                method="POST",
                path="/answer",
                body=json.dumps({"question": question}).encode(),
            )
            return await server._route(request)
        finally:
            await server.answerer.stop()

    return asyncio.run(main())


class TestDegradedMode:
    """There is no degraded mode: under overload a cached question is an
    ordinary cache-hit-lane answer — it never reaches admission — and an
    uncached one gets the 503.  No payload carries a ``degraded`` key."""

    def test_cached_answer_is_a_lane_hit_that_overload_cannot_refuse(
        self, serve_system, suite
    ):
        question = _answerable_question(suite, serve_system)
        expected = serve_system.answer(question)  # warms the answer cache
        server = KBQAServer(serve_system, ServeConfig())
        status, payload = _routed(server, question)
        assert status == 200
        assert "degraded" not in payload
        assert payload["value"] == expected.value
        stats = server.answerer.stats
        assert (stats.inline_hits, stats.rejected, stats.degraded) == (1, 0, 0)

    def test_uncached_question_still_gets_the_503(self, serve_system):
        server = KBQAServer(serve_system, ServeConfig(max_pending=7))

        async def rejecting(_question, **_kwargs):
            raise OverloadedError("serving queue full (7 pending evaluations)")

        server.answerer.answer = rejecting
        status, payload = _route(
            server,
            "POST",
            "/answer",
            {"question": "definitely never cached before zorp?"},
        )
        assert status == 503
        assert payload == {"error": "overloaded", "max_pending": 7}

    def test_fresh_answers_are_not_marked_degraded(self, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        server = KBQAServer(serve_system, ServeConfig())

        async def main():
            await server.answerer.start()
            try:
                request = HTTPRequest(
                    method="POST",
                    path="/answer",
                    body=json.dumps({"question": question}).encode(),
                )
                return await server._route(request)
            finally:
                await server.answerer.stop()

        status, payload = asyncio.run(main())
        assert status == 200
        assert "degraded" not in payload
        assert payload["values"] == list(serve_system.answer(question).values)
