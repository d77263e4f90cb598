"""AsyncAnswerer contract: equivalence, micro-batching, admission, freshness.

The serving layer's four invariants under test:

* concurrent async results are byte-identical to the sequential path
  (``ServeConfig`` still accepts the retired pool keywords and ignores
  them);
* every miss is one queue entry with a future of its own, and N cold
  duplicates still cost one Eq 7 evaluation (``answer_many`` submits a
  distinct key once; a micro-batch deduplicates what it carries);
* admission control rejects deterministically with ``OverloadedError``;
* batches evaluate inline on the event loop, so ``apply()`` lands between
  two batches, and an invalidation that lands mid-evaluation — on the loop
  or from another thread — forces a re-evaluation, so a request admitted
  after the invalidation never observes a stale answer.

Behavioral tests drive a scripted target (controllable latency and a
mutable "KB" cell) so timing windows are held open explicitly; equivalence
tests run against the real trained system.
"""

import asyncio
import itertools
import random
import threading
import time

import pytest

from repro.core.online import AnswerResult
from repro.serve import (
    AsyncAnswerer,
    DeadlineExceeded,
    OverloadedError,
    ServeConfig,
    normalized_key,
)

from tests.serve_harness import count_evaluations


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


class ScriptedTarget:
    """``answer_many`` with controllable latency over a mutable value cell."""

    def __init__(self, value: str = "v0", delay: float = 0.0) -> None:
        self.value = value
        self.delay = delay
        self.calls: list[list[str]] = []
        self.started = threading.Event()

    def answer_many(self, questions):
        self.calls.append(list(questions))
        self.started.set()
        if self.delay:
            time.sleep(self.delay)
        return [_result(q, self.value) for q in questions]


def run(coro):
    return asyncio.run(coro)


def duplicate_heavy_stream(pool, requests, duplicate_rate, seed):
    """Seeded request stream: with ``duplicate_rate`` one of the first eight
    questions, otherwise the next question of the pool in order."""
    rng = random.Random(seed)
    cold = itertools.cycle(pool)
    return [
        rng.choice(pool[:8]) if rng.random() < duplicate_rate else next(cold)
        for _ in range(requests)
    ]


class TestEquivalence:
    def test_concurrent_results_identical_to_sequential(self, kbqa_fb, suite):
        """The acceptance gate: async output == synchronous output, under a
        concurrent duplicate-heavy workload."""
        pool = [q.question for q in suite.benchmark("qald3").bfqs()][:12]
        stream = duplicate_heavy_stream(pool, 60, duplicate_rate=0.6, seed=3)
        expected = [kbqa_fb.answer(q) for q in stream]

        async def main():
            config = ServeConfig(max_batch=8)
            async with AsyncAnswerer(kbqa_fb, config) as answerer:
                return await answerer.answer_many(stream)

        assert run(main()) == expected

    def test_question_surface_form_is_preserved(self):
        """Two spellings of one key each get their own question text back,
        through ``answer`` and through ``answer_many``."""
        target = ScriptedTarget(delay=0.05)

        async def main():
            async with AsyncAnswerer(target) as answerer:
                return await asyncio.gather(
                    answerer.answer("what is X ?"),
                    answerer.answer("What  is  X?"),
                )

        first, second = run(main())
        assert normalized_key("what is X ?") == normalized_key("What  is  X?")
        assert first.question == "what is X ?"
        assert second.question == "What  is  X?"
        assert first.values == second.values

        async def batched():
            async with AsyncAnswerer(target) as answerer:
                return await answerer.answer_many(["what is X ?", "What  is  X?"])

        target.calls.clear()
        assert [r.question for r in run(batched())] == ["what is X ?", "What  is  X?"]
        assert target.calls == [["what is X ?"]]  # one submission per distinct key


class TestServingEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("stream_seed", [3, 11])
    def test_answer_many_equals_sync(self, backend, stream_seed, kbqa_fb, suite):
        """Async results over a randomized duplicate-heavy stream equal the
        synchronous path, whichever retired ``executor`` value a caller
        still passes (both are accepted and change nothing)."""
        pool = [q.question for q in suite.benchmark("qald3").bfqs()][:12]
        stream = duplicate_heavy_stream(pool, 48, duplicate_rate=0.5, seed=stream_seed)
        expected = [kbqa_fb.answer(q) for q in stream]

        async def main():
            config = ServeConfig(max_batch=8, executor=backend)
            async with AsyncAnswerer(kbqa_fb, config) as answerer:
                return await answerer.answer_many(stream)

        assert asyncio.run(main()) == expected


class TestSelectionRules:
    def test_serve_config_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            ServeConfig(executor="fibers")
        # serving has no process executor; the error says what evaluates
        with pytest.raises(ValueError, match="no process executor"):
            ServeConfig(executor="process")

    def test_retired_pool_keywords_are_validated_and_ignored(self):
        """Callers written against the thread pool still construct a config;
        a value the pool would have refused is still refused."""
        assert ServeConfig(workers=2, executor="thread") == ServeConfig()
        assert ServeConfig(workers=1, executor="serial", max_batch=4) == ServeConfig(
            max_batch=4
        )
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ServeConfig(workers=0)

    @pytest.mark.parametrize("deadline_ms", [float("nan"), float("inf"), float("-inf")])
    def test_serve_config_rejects_a_non_finite_deadline(self, deadline_ms):
        """``nan >= 0`` and ``nan > 0`` are both False: a ``< 0`` check let
        ``nan`` through as a silently disabled deadline."""
        with pytest.raises(ValueError, match="deadline_ms must be a finite number"):
            ServeConfig(deadline_ms=deadline_ms)


class TestCoalescing:
    def test_identical_questions_cost_one_evaluation(self):
        """A client batch submits each distinct miss once: the other four
        copies are ``coalesced`` requests that share its result, and the
        tenant sees five requests completed."""
        target = ScriptedTarget(delay=0.02)

        async def main():
            async with AsyncAnswerer(target) as answerer:
                results = await answerer.answer_many(["who is the mayor?"] * 5, tenant="t")
                return results, answerer.snapshot(), answerer.metrics.snapshot()

        results, stats, metrics = run(main())
        assert len({r.value for r in results}) == 1
        assert stats["coalesced"] == 4
        assert stats["evaluated"] == 1
        assert stats["requests"] == 5
        assert target.calls == [["who is the mayor?"]]
        assert metrics["tenants"]["t"] == {"requests": 5, "completed": 5}

    def test_distinct_questions_form_one_micro_batch(self):
        target = ScriptedTarget()
        questions = [f"question number {n} ?" for n in range(8)]

        async def main():
            config = ServeConfig(max_batch=8)
            async with AsyncAnswerer(target, config) as answerer:
                await answerer.answer_many(questions)
                return answerer.snapshot()

        stats = run(main())
        assert stats["batches"] == 1
        assert stats["max_batch_seen"] == 8
        assert [len(call) for call in target.calls] == [8]

    def test_duplicates_submitted_together_cost_one_evaluation(
        self, kbqa_fb, suite, monkeypatch
    ):
        """Four cold duplicates through ``answer`` are four queue entries, but
        they arrive before the dispatcher runs and share one micro-batch,
        whose ``answer_many`` evaluates Eq 7 once for their key."""
        question = next(
            q.question for q in suite.benchmark("qald3").bfqs()
            if kbqa_fb.answer(q.question).answered
        )
        expected = kbqa_fb.answer(question)
        kbqa_fb.answerer.clear_caches()
        evaluations = count_evaluations(kbqa_fb.answerer, monkeypatch)

        async def main():
            async with AsyncAnswerer(kbqa_fb, ServeConfig(max_batch=4)) as answerer:
                results = await asyncio.gather(*(answerer.answer(question) for _ in range(4)))
                return results, answerer.snapshot()

        results, stats = run(main())
        assert results == [expected] * 4
        assert evaluations == [question]
        assert (stats["batches"], stats["evaluated"], stats["coalesced"]) == (1, 4, 0)


class TestPerWaiterFutures:
    """Every request is a queue entry with a future of its own: walking away
    (cancelled, expired) resolves only that future, and a request that left
    while queued is left out of its batch."""

    @staticmethod
    async def _queued(answerer, target, question, n, **kwargs):
        """``n`` submissions of ``question``, one queue entry each, not yet
        dispatched (tasks run in creation order, before the dispatcher's
        wake-up)."""
        tasks = [
            asyncio.ensure_future(answerer.answer(question, **kwargs)) for _ in range(n)
        ]
        await asyncio.sleep(0)
        assert target.calls == [] and answerer.snapshot()["pending"] == n
        return tasks

    def test_a_cancelled_queued_request_is_left_out_of_its_batch(self):
        """The first of four queued duplicates leaves before dispatch: the
        other three are evaluated, in one batch, and it is not."""
        target = ScriptedTarget()

        async def main():
            async with AsyncAnswerer(target) as answerer:
                tasks = await self._queued(answerer, target, "who is the mayor?", 4)
                tasks[0].cancel()
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                return outcomes, answerer.snapshot()

        outcomes, stats = run(main())
        assert isinstance(outcomes[0], asyncio.CancelledError)
        assert [o.value for o in outcomes[1:]] == ["v0"] * 3
        assert target.calls == [["who is the mayor?"] * 3]
        assert (stats["evaluated"], stats["pending"]) == (3, 0)

    def test_an_expired_duplicate_does_not_disturb_its_sibling(self):
        """A stalled batch ahead of the key outlasts one duplicate's
        deadline: it gets ``DeadlineExceeded`` before the next batch and is
        left out of it, its sibling gets the answer, and the key is
        evaluated once."""
        target = ScriptedTarget(delay=0.15)

        async def main():
            config = ServeConfig(max_batch=1)
            async with AsyncAnswerer(target, config) as answerer:
                ahead = asyncio.ensure_future(answerer.answer("stalls the loop?"))
                sibling = asyncio.ensure_future(answerer.answer("the key?"))
                expiring = asyncio.ensure_future(answerer.answer("the key?", deadline_s=0.05))
                outcomes = await asyncio.gather(ahead, sibling, expiring, return_exceptions=True)
                return outcomes, answerer.snapshot()

        (ahead, sibling, expiring), stats = run(main())
        assert isinstance(expiring, DeadlineExceeded)
        assert sibling.question == "the key?" and sibling.value == "v0"
        assert ahead.value == "v0"
        assert target.calls == [["stalls the loop?"], ["the key?"]]
        assert (stats["deadline_expired"], stats["pending"]) == (1, 0)

    def test_stop_fails_every_waiter_of_a_queued_key(self):
        target = ScriptedTarget()

        async def main():
            answerer = AsyncAnswerer(target)
            await answerer.start()
            tasks = await self._queued(answerer, target, "never dispatched?", 3)
            await answerer.stop()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes, answerer.snapshot()

        outcomes, stats = run(main())
        assert [type(o) for o in outcomes] == [RuntimeError] * 3
        assert all("serving stopped" in str(o) for o in outcomes)
        assert target.calls == []
        assert stats["pending"] == 0


class TestAdmissionControl:
    def test_overload_raises_deterministically(self):
        target = ScriptedTarget(delay=0.05)
        questions = [f"distinct {n} ?" for n in range(6)]

        async def main():
            config = ServeConfig(max_batch=1, max_pending=2)
            async with AsyncAnswerer(target, config) as answerer:
                outcomes = await asyncio.gather(
                    *(answerer.answer(q) for q in questions), return_exceptions=True
                )
                return outcomes, answerer.snapshot()

        outcomes, stats = run(main())
        rejected = [o for o in outcomes if isinstance(o, OverloadedError)]
        served = [o for o in outcomes if isinstance(o, AnswerResult)]
        assert len(rejected) == 4 and len(served) == 2
        assert stats["rejected"] == 4
        assert "queue full" in str(rejected[0])

    def test_a_duplicate_miss_takes_its_own_slot(self):
        """A queued key is not free to ask again: each ``answer`` of a miss
        is one queue entry, so at capacity a duplicate is refused too.  A
        client batch asks its duplicates once, in one slot."""
        target = ScriptedTarget(delay=0.05)

        async def main():
            config = ServeConfig(max_batch=1, max_pending=1)
            async with AsyncAnswerer(target, config) as answerer:
                singles = await asyncio.gather(
                    *(answerer.answer("the hot question ?") for _ in range(3)),
                    return_exceptions=True,
                )
                batched = await answerer.answer_many(["the hot question ?"] * 3)
                return singles, batched, answerer.snapshot()

        singles, batched, stats = run(main())
        assert [type(o) for o in singles] == [AnswerResult, OverloadedError, OverloadedError]
        assert [r.value for r in batched] == ["v0"] * 3
        assert (stats["rejected"], stats["coalesced"]) == (2, 2)

    def test_oversized_batch_is_rejected_before_enqueueing(self):
        """A client batch that cannot fit the remaining capacity sheds load
        up front: nothing is enqueued, nothing is evaluated."""
        target = ScriptedTarget()
        questions = [f"distinct {n} ?" for n in range(5)]

        async def main():
            config = ServeConfig(max_batch=1, max_pending=2)
            async with AsyncAnswerer(target, config) as answerer:
                with pytest.raises(OverloadedError, match="slots are free"):
                    await answerer.answer_many(questions)
                return answerer.snapshot()

        stats = run(main())
        assert stats["rejected"] == 5
        assert stats["evaluated"] == 0 and stats["pending"] == 0
        assert target.calls == []


class TestFreshness:
    def test_midflight_invalidation_forces_reevaluation(self):
        """A result computed before an invalidation is never delivered
        after it: the batch re-evaluates against the mutated target.  The
        write lands inside the inline evaluation, as a synchronous KB change
        listener would."""

        class WritesDuringFirstBatch(ScriptedTarget):
            answerer: AsyncAnswerer

            def answer_many(self, questions):
                results = super().answer_many(questions)
                if len(self.calls) == 1:
                    self.value = "new"  # the "KB edit"
                    self.answerer.invalidate()
                return results

        target = WritesDuringFirstBatch(value="old")

        async def main():
            async with AsyncAnswerer(target) as answerer:
                target.answerer = answerer
                result = await answerer.answer("the question ?")
                return result, answerer.snapshot()

        result, stats = run(main())
        assert result.value == "new"
        assert stats["stale_retries"] == 1
        assert stats["invalidations"] == 1

    def test_write_from_another_thread_during_an_inline_batch_is_not_missed(self):
        """A write that bypasses apply(): another thread mutates the KB and
        calls invalidate() while the loop is inside ``answer_many``.  The
        bump lands at once, not in a callback the busy loop cannot run, so
        the batch re-evaluates and the pre-write result is never delivered."""

        class ThreadWritesDuringFirstBatch(ScriptedTarget):
            answerer: AsyncAnswerer

            def answer_many(self, questions):
                results = super().answer_many(questions)
                if len(self.calls) == 1:

                    def write() -> None:
                        self.value = "new"
                        self.answerer.invalidate()

                    writer = threading.Thread(target=write)
                    writer.start()
                    writer.join(30.0)
                    assert not writer.is_alive()
                return results

        target = ThreadWritesDuringFirstBatch(value="old")

        async def main():
            async with AsyncAnswerer(target, ServeConfig()) as answerer:
                target.answerer = answerer
                result = await answerer.answer("the question ?")
                return result, answerer.snapshot()

        result, stats = run(main())
        assert result.value == "new"
        assert stats["stale_retries"] == 1
        assert stats["stale_delivered"] == 0
        assert len(target.calls) == 2

    def test_invalidate_is_threadsafe(self):
        target = ScriptedTarget(value="old", delay=0.2)

        async def main():
            async with AsyncAnswerer(target) as answerer:
                task = asyncio.ensure_future(answerer.answer("the question ?"))
                loop = asyncio.get_running_loop()

                def mutate_from_thread():
                    target.started.wait()
                    target.value = "new"
                    target.delay = 0.0
                    answerer.invalidate()  # cross-thread entry point

                await loop.run_in_executor(None, mutate_from_thread)
                return await task

        assert run(main()).value == "new"

    def test_sustained_invalidation_re_evaluates_until_fresh(self):
        """There is no retry cap: a writer that bumps the epoch during every
        evaluation keeps the batch re-evaluating until it stops, and only
        the evaluation no bump overlapped is delivered."""

        class InvalidatesSevenTimes(ScriptedTarget):
            answerer: AsyncAnswerer

            def answer_many(self, questions):
                results = super().answer_many(questions)
                if len(self.calls) <= 7:  # past the old cap of 5
                    self.value = f"v{len(self.calls)}"
                    self.answerer.invalidate()  # a concurrent write, each time
                return results

        target = InvalidatesSevenTimes(value="v0")

        async def main():
            async with AsyncAnswerer(target) as answerer:
                target.answerer = answerer
                result = await answerer.answer("the question ?")
                return result, answerer.snapshot()

        result, stats = run(main())
        assert result.value == "v7"
        assert stats["stale_retries"] == 7
        assert stats["stale_delivered"] == 0

    def test_apply_runs_between_two_batches(self):
        """An apply() issued while a long queue drains runs between two
        batches, never inside one: the batches before it answer from the old
        KB, the batches after it from the new one."""
        log: list[str] = []

        class LoggingTarget(ScriptedTarget):
            def answer_many(self, questions):
                log.append("batch start")
                results = super().answer_many(questions)
                log.append("batch end")
                return results

        target = LoggingTarget(value="old", delay=0.005)

        def mutation():
            log.append("write")
            target.value = "new"
            return "changed"

        async def main():
            config = ServeConfig(max_batch=2)
            async with AsyncAnswerer(target, config) as answerer:
                readers = asyncio.gather(
                    *(answerer.answer(f"queued {n} ?") for n in range(12))
                )
                while not target.calls:  # the queue has started draining
                    await asyncio.sleep(0)
                outcome = await answerer.apply(mutation)
                after = await answerer.answer("after the write ?")
                return outcome, await readers, after, answerer.snapshot()

        outcome, results, after, stats = run(main())
        assert outcome == "changed"
        write = log.index("write")
        batch = ["batch start", "batch end"]
        assert log[:write] == batch * (write // 2)
        assert log[write + 1 :] == batch * ((len(log) - write - 1) // 2)
        before = write // 2  # batches evaluated before the write
        assert 0 < before < 6  # mid-queue: 12 questions are 6 batches
        values = [r.value for r in results]
        assert values == ["old"] * (2 * before) + ["new"] * (12 - 2 * before)
        assert after.value == "new"
        assert stats["applies"] == 1
        assert stats["invalidations"] == 1
        assert stats["stale_retries"] == 0


class TestLifecycle:
    def test_answer_before_start_and_after_stop_fail_cleanly(self):
        target = ScriptedTarget()
        answerer = AsyncAnswerer(target)

        async def before():
            with pytest.raises(RuntimeError, match="not running"):
                await answerer.answer("q ?")

        run(before())

        async def after():
            async with AsyncAnswerer(target) as a:
                await a.answer("q ?")
            with pytest.raises(RuntimeError, match="not running"):
                await a.answer("q ?")

        run(after())

    def test_stop_fails_queued_requests_deterministically(self):
        target = ScriptedTarget(delay=0.1)
        questions = [f"distinct {n} ?" for n in range(3)]

        async def main():
            config = ServeConfig(max_batch=1)
            answerer = AsyncAnswerer(target, config)
            await answerer.start()
            tasks = [asyncio.ensure_future(answerer.answer(q)) for q in questions]
            await asyncio.sleep(0.02)  # first batch in flight, rest queued
            await answerer.stop()
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = run(main())
        served = [o for o in outcomes if isinstance(o, AnswerResult)]
        stopped = [o for o in outcomes if isinstance(o, RuntimeError)]
        assert len(served) >= 1  # the in-flight batch completed
        assert all("stopped" in str(o) for o in stopped)
        assert len(served) + len(stopped) == 3
