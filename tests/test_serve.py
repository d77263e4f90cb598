"""AsyncAnswerer contract: equivalence, coalescing, admission, freshness.

The serving layer's four invariants under test:

* concurrent async results are byte-identical to the sequential path, on
  both executors ``ServeConfig`` names (it rejects anything else);
* N concurrent identical questions cost one evaluation (coalescing);
* admission control rejects deterministically with ``OverloadedError``;
* an invalidation that lands mid-evaluation forces a re-evaluation, so a
  request admitted after the invalidation never observes a stale answer.

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
from repro.serve import AsyncAnswerer, OverloadedError, ServeConfig, normalized_key


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
        self.active = 0

    def answer_many(self, questions):
        self.calls.append(list(questions))
        self.active += 1
        self.started.set()
        try:
            if self.delay:
                time.sleep(self.delay)
            return [_result(q, self.value) for q in questions]
        finally:
            self.active -= 1


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
            config = ServeConfig(workers=2, max_batch=8)
            async with AsyncAnswerer(kbqa_fb, config) as answerer:
                return await answerer.answer_many(stream)

        assert run(main()) == expected

    def test_question_surface_form_is_preserved(self):
        """Coalesced joiners get their own question text back, not the
        canonical in-flight phrasing."""
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


class TestServingEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("stream_seed", [3, 11])
    def test_answer_many_equals_sync(self, backend, stream_seed, kbqa_fb, suite):
        """Async results over a randomized duplicate-heavy stream equal the
        synchronous path on both serving executors."""
        pool = [q.question for q in suite.benchmark("qald3").bfqs()][:12]
        stream = duplicate_heavy_stream(pool, 48, duplicate_rate=0.5, seed=stream_seed)
        expected = [kbqa_fb.answer(q) for q in stream]

        async def main():
            config = ServeConfig(workers=2, max_batch=8, executor=backend)
            async with AsyncAnswerer(kbqa_fb, config) as answerer:
                return await answerer.answer_many(stream)

        assert asyncio.run(main()) == expected


class TestSelectionRules:
    def test_serve_config_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="executor"):
            ServeConfig(executor="fibers")
        # serving has no process executor; the error names the multi-core way
        with pytest.raises(ValueError, match="--procs"):
            ServeConfig(executor="process")


class TestCoalescing:
    def test_identical_questions_cost_one_evaluation(self):
        target = ScriptedTarget(delay=0.02)

        async def main():
            async with AsyncAnswerer(target, ServeConfig(workers=1)) as answerer:
                results = await asyncio.gather(
                    *(answerer.answer("who is the mayor?") for _ in range(5))
                )
                return results, answerer.snapshot()

        results, stats = run(main())
        assert len({r.value for r in results}) == 1
        assert stats["coalesced"] == 4
        assert stats["evaluated"] == 1
        assert target.calls == [["who is the mayor?"]]

    def test_distinct_questions_form_one_micro_batch(self):
        target = ScriptedTarget()
        questions = [f"question number {n} ?" for n in range(8)]

        async def main():
            config = ServeConfig(workers=1, max_batch=8)
            async with AsyncAnswerer(target, config) as answerer:
                await answerer.answer_many(questions)
                return answerer.snapshot()

        stats = run(main())
        assert stats["batches"] == 1
        assert stats["max_batch_seen"] == 8
        assert [len(call) for call in target.calls] == [8]

    def test_duplicates_submitted_together_cost_one_evaluation(self):
        """No target delay: all N duplicates arrive before the dispatcher
        runs, the first enqueues and the other N-1 join it."""
        target = ScriptedTarget()
        n = 4

        async def main():
            config = ServeConfig(workers=1, max_batch=4)
            async with AsyncAnswerer(target, config) as answerer:
                await asyncio.gather(
                    *(answerer.answer("same question ?") for _ in range(n))
                )
                return answerer.snapshot()

        stats = run(main())
        assert stats["evaluated"] == 1
        assert stats["coalesced"] == n - 1
        assert target.calls == [["same question ?"]]

    def test_coalescing_reduces_evaluations_at_high_duplicate_rate(self, kbqa_fb, suite):
        """On the real answerer a duplicate-heavy stream evaluates at most
        one question per distinct key.  The answer cache starts cold: a warm
        one answers the whole stream in the cache-hit lane and nothing is
        evaluated at all."""
        pool = [q.question for q in suite.benchmark("qald3").bfqs()]
        stream = duplicate_heavy_stream(pool, 128, duplicate_rate=0.9, seed=5)

        async def main() -> dict:
            kbqa_fb.answerer.clear_caches()
            config = ServeConfig(workers=2, max_batch=4)
            async with AsyncAnswerer(kbqa_fb.answerer, config) as answerer:
                await asyncio.gather(*(answerer.answer(q) for q in stream))
                return answerer.snapshot()

        stats = run(main())
        assert 0 < stats["evaluated"] <= len({normalized_key(q) for q in stream})
        assert stats["coalesced"] > 0
        assert stats["requests"] == len(stream)


class TestAdmissionControl:
    def test_overload_raises_deterministically(self):
        target = ScriptedTarget(delay=0.05)
        questions = [f"distinct {n} ?" for n in range(6)]

        async def main():
            config = ServeConfig(workers=1, max_batch=1, max_pending=2)
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

    def test_coalesced_joiners_are_never_rejected(self):
        """Duplicates of an in-flight question are free: they must be
        admitted even when the queue is at capacity."""
        target = ScriptedTarget(delay=0.05)

        async def main():
            config = ServeConfig(workers=1, max_batch=1, max_pending=1)
            async with AsyncAnswerer(target, config) as answerer:
                return await asyncio.gather(
                    *(answerer.answer("the hot question ?") for _ in range(5))
                )

        results = run(main())
        assert len(results) == 5
        assert len({r.value for r in results}) == 1

    def test_oversized_batch_is_rejected_before_enqueueing(self):
        """A client batch that cannot fit the remaining capacity sheds load
        up front: nothing is enqueued, nothing is evaluated."""
        target = ScriptedTarget()
        questions = [f"distinct {n} ?" for n in range(5)]

        async def main():
            config = ServeConfig(workers=1, max_batch=1, max_pending=2)
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
        after it: the batch re-evaluates against the mutated target."""
        target = ScriptedTarget(value="old", delay=0.2)

        async def main():
            async with AsyncAnswerer(target, ServeConfig(workers=1)) as answerer:
                task = asyncio.ensure_future(answerer.answer("the question ?"))
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, target.started.wait)
                target.value = "new"  # the "KB edit"
                target.delay = 0.0
                answerer.invalidate()
                result = await task
                return result, answerer.snapshot()

        result, stats = run(main())
        assert result.value == "new"
        assert stats["stale_retries"] >= 1
        assert stats["invalidations"] == 1

    def test_invalidate_is_threadsafe(self):
        target = ScriptedTarget(value="old", delay=0.2)

        async def main():
            async with AsyncAnswerer(target, ServeConfig(workers=1)) as answerer:
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

    def test_sustained_invalidation_degrades_to_bounded_staleness(self):
        """A writer bumping the epoch faster than one evaluation completes
        must not livelock the batch: after max_stale_retries the freshest
        attempt is delivered and counted."""

        class SelfInvalidatingTarget(ScriptedTarget):
            answerer: AsyncAnswerer

            def answer_many(self, questions):
                results = super().answer_many(questions)
                self.answerer.invalidate()  # a concurrent write, every time
                return results

        target = SelfInvalidatingTarget(value="v")

        async def main():
            config = ServeConfig(workers=1, max_stale_retries=2)
            async with AsyncAnswerer(target, config) as answerer:
                target.answerer = answerer
                result = await answerer.answer("the question ?")
                return result, answerer.snapshot()

        result, stats = run(main())
        assert result.value == "v"  # resolved despite perpetual invalidation
        assert stats["stale_retries"] == 2
        assert stats["stale_delivered"] == 1

    def test_apply_quiesces_writes(self):
        """apply() runs the mutation with zero evaluations in flight and
        subsequent requests see its effect."""
        target = ScriptedTarget(value="old", delay=0.01)
        observed_active: list[int] = []

        def mutation():
            observed_active.append(target.active)
            target.value = "new"
            return "changed"

        async def main():
            config = ServeConfig(workers=2, max_batch=2)
            async with AsyncAnswerer(target, config) as answerer:
                warm = asyncio.gather(
                    *(answerer.answer(f"warm {n} ?") for n in range(6))
                )
                outcome = await answerer.apply(mutation)
                after = await answerer.answer("after the write ?")
                await warm
                return outcome, after, answerer.snapshot()

        outcome, after, stats = run(main())
        assert outcome == "changed"
        assert observed_active == [0]  # write saw a fully drained executor
        assert after.value == "new"
        assert stats["applies"] == 1
        assert stats["invalidations"] >= 1


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
            config = ServeConfig(workers=1, max_batch=1)
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
