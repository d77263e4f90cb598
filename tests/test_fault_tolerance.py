"""Crash-safety contracts of the one serving process under real faults.

* requests carry **deadlines** (``DeadlineExceeded`` / HTTP 504) — a
  request whose deadline passes while it waits behind a stalled inline
  batch gets its 504 as soon as the loop is free again, and a malformed
  deadline header is a 400;
* the HTTP front serves **degraded** answer-cache hits instead of 503s
  when the evaluation backend is saturated and the cache-hit lane cannot
  read the cache, and only then.

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
        """A request whose deadline passes while it is queued behind a
        stalled inline batch gets ``DeadlineExceeded`` once that batch
        returns.  Its evaluation is not cancelled: the next batch still
        evaluates it and warms the answer cache."""
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
        ``queued``: three stalled batches ahead of it, so its deadline's
        timer, and every callback the expiry schedules, run between two
        batches before the victim's batch fails."""

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
        assert target.calls == [[q] for q in names] + [["victim?"]]
        assert stats["deadline_expired"] == 1 and stats["batches"] == ahead
        assert stats["evaluated"] == ahead + 1  # the failed batch's question counts

    def test_config_default_deadline_applies(self):
        config = ServeConfig(deadline_ms=40.0)

        async def main():
            async with AsyncAnswerer(SlowTarget(0.4), config) as answerer:
                with pytest.raises(DeadlineExceeded):
                    await answerer.answer("slow by default?")
                return dict(answerer.snapshot())

        snapshot = asyncio.run(main())
        assert snapshot["deadline_expired"] == 1


# -- HTTP lifecycle: 504 + degraded mode -------------------------------------


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


class _Probeless:
    """``system`` as a target the cache-hit lane cannot read: same KB, same
    answerer, no ``cached_answer`` on the target itself."""

    cached_answer = None

    def __init__(self, system) -> None:
        self.kb, self.answerer = system.kb, system.answerer
        self.answer_many = system.answer_many


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
    """Under overload a cached question is an ordinary cache-hit-lane answer:
    it never reaches admission, so there is nothing to degrade.  Degraded
    mode is what is left for the refusals the lane could not absorb."""

    def test_cached_answer_is_a_lane_hit_that_overload_cannot_refuse(
        self, serve_system, suite
    ):
        question = _answerable_question(suite, serve_system)
        expected = serve_system.answer(question)  # warms the answer cache
        server = KBQAServer(serve_system, ServeConfig())
        status, payload = _routed(server, question)
        assert status == 200
        assert payload["degraded"] is False
        assert payload["value"] == expected.value
        stats = server.answerer.stats
        assert (stats.inline_hits, stats.rejected, stats.degraded) == (1, 0, 0)

    def test_cached_answer_served_degraded_when_the_lane_cannot_read_the_cache(
        self, serve_system, suite
    ):
        question = _answerable_question(suite, serve_system)
        expected = serve_system.answer(question)
        server = KBQAServer(_Probeless(serve_system), ServeConfig())
        status, payload = _routed(server, question)
        assert status == 200
        assert payload["degraded"] is True
        assert payload["value"] == expected.value
        stats = server.answerer.stats
        assert (stats.inline_hits, stats.rejected, stats.degraded) == (0, 1, 1)

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

    def test_batch_degrades_only_when_fully_cached(self, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        serve_system.answer(question)  # cached
        server = KBQAServer(serve_system, ServeConfig(max_pending=7))

        async def rejecting(_questions, **_kwargs):
            raise OverloadedError("serving queue full (7 pending evaluations)")

        server.answerer.answer_many = rejecting
        status, payload = _route(
            server,
            "POST",
            "/batch",
            {"questions": [question, "never cached zorp?"]},
        )
        assert status == 503
        status, payload = _route(
            server, "POST", "/batch", {"questions": [question, question]}
        )
        assert status == 200
        assert all(r["degraded"] for r in payload["results"])
        assert [r["value"] for r in payload["results"]] == [
            serve_system.answer(question).value
        ] * 2

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
        assert payload["degraded"] is False
