"""Concurrency hygiene: serving under write churn and clean shutdown.

Serving: a request admitted after a KB mutation + invalidation can never
observe a pre-mutation answer, however many readers are in flight or however
hard a writer thread hammers ``invalidate()``; an answerer evaluates on its
event loop, so serving starts no thread, and stopping it fails what was
still queued.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import sys
import threading
import time

import pytest

from repro.core.online import AnswerResult
from repro.serve import AsyncAnswerer, ServeConfig

TIMEOUT_S = 30.0

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


class VersionedTarget:
    """Target answering with its version counter at evaluation time."""

    def __init__(self) -> None:
        self.version = 0

    def bump(self) -> int:
        """One live 'KB write': increment the served version."""
        self.version += 1
        return self.version

    def answer_many(self, questions):
        """Answer every question with the current version counter."""
        return [_result(q, str(self.version)) for q in questions]


class TestSnapshotFreshness:
    def test_post_apply_requests_always_see_the_write(self):
        """Churn loop: after every apply() the next answer must carry the
        new version — the apply() path, repeated."""
        target = VersionedTarget()
        config = ServeConfig(max_batch=4)

        async def main():
            async with AsyncAnswerer(target, config) as answerer:
                for round_index in range(5):
                    version = await answerer.apply(target.bump)
                    result = await answerer.answer(f"round {round_index}?")
                    assert result.value == str(version), (
                        f"round {round_index} served stale version "
                        f"{result.value} != {version}"
                    )
                return answerer.snapshot()

        stats = asyncio.run(main())
        assert stats["applies"] == 5
        assert stats["stale_delivered"] == 0

    def test_concurrent_churn_never_time_travels(self):
        """Readers flooding the queue while a writer bumps versions: every
        delivered answer is a version that existed, and versions observed
        by successive post-apply probes never decrease."""
        target = VersionedTarget()
        config = ServeConfig(max_batch=4, max_pending=512)

        async def main():
            async with AsyncAnswerer(target, config) as answerer:
                observed: list[int] = []

                async def reader(index: int) -> None:
                    result = await answerer.answer(f"q{index}?")
                    assert 0 <= int(result.value) <= 3
                    observed.append(int(result.value))

                readers = [asyncio.ensure_future(reader(i)) for i in range(24)]
                floor = 0
                for _ in range(3):
                    version = await answerer.apply(target.bump)
                    probe = await answerer.answer(f"probe {version}?")
                    assert int(probe.value) == version >= floor
                    floor = version
                await asyncio.gather(*readers)
                return observed

        observed = asyncio.run(main())
        assert len(observed) == 24

    def test_writer_threads_hammering_invalidate_never_get_a_stale_delivery(self):
        """Four writer threads (more than the cores) bump the version and
        call ``invalidate()`` every millisecond, with a shortened thread
        switch interval, while readers drain a queue of 2 ms batches: the
        evaluations that straddle a bump re-evaluate, none is delivered
        stale, no reader is lost to the churn and no bump is lost."""
        target = SlowVersionedTarget(delay_s=0.002)
        writers, bumps = 4, 50
        version_lock = threading.Lock()

        async def main():
            async with AsyncAnswerer(target, ServeConfig(max_batch=4)) as answerer:

                def hammer() -> None:
                    for _ in range(bumps):
                        with version_lock:
                            target.bump()
                        answerer.invalidate()
                        time.sleep(0.001)

                threads = [threading.Thread(target=hammer) for _ in range(writers)]
                for thread in threads:
                    thread.start()
                results = []
                while any(thread.is_alive() for thread in threads):
                    results += await answerer.answer_many(
                        [f"q{len(results) + n}?" for n in range(8)]
                    )
                for thread in threads:
                    thread.join(TIMEOUT_S)
                    assert not thread.is_alive()
                final = await answerer.answer("after the writers?")
                return results, final, answerer.snapshot()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results, final, stats = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        total = writers * bumps
        assert results and all(0 <= int(r.value) <= total for r in results)
        assert final.value == str(total)
        assert stats["invalidations"] == total
        assert stats["stale_retries"] > 0
        assert stats["stale_delivered"] == 0


class SlowVersionedTarget(VersionedTarget):
    """A versioned target whose batches take ``delay_s``."""

    def __init__(self, delay_s: float) -> None:
        super().__init__()
        self.delay_s = delay_s

    def answer_many(self, questions):
        version = self.version
        time.sleep(self.delay_s)
        return [_result(q, str(version)) for q in questions]


class TestCleanShutdown:
    def test_stop_leaves_no_worker_processes(self):
        """Serving evaluates on its own event loop: it starts no thread
        while it serves and never forks."""
        target = VersionedTarget()
        before = set(threading.enumerate())

        async def main():
            async with AsyncAnswerer(target) as answerer:
                await answerer.answer_many([f"q{i}" for i in range(8)])
                assert set(threading.enumerate()) == before

        asyncio.run(main())
        assert set(threading.enumerate()) == before
        assert multiprocessing.active_children() == []

    def test_repeated_cycles_do_not_accumulate_workers(self):
        target = VersionedTarget()
        before = set(threading.enumerate())

        async def one_cycle(index: int):
            async with AsyncAnswerer(target) as answerer:
                result = await answerer.answer(f"cycle {index}?")
                assert result.value == "0"

        for index in range(3):
            asyncio.run(one_cycle(index))
        assert set(threading.enumerate()) == before

    def test_stop_fails_queued_requests_deterministically(self):
        """stop() requested while a batch evaluates: that batch completes,
        and the request queued behind it fails with 'serving stopped'
        (not a hang)."""

        class StopsDuringFirstBatch(VersionedTarget):
            answerer: AsyncAnswerer

            def __init__(self) -> None:
                super().__init__()
                self.tasks: list[asyncio.Task] = []

            def answer_many(self, questions):
                if not self.tasks:  # mid-batch: queue one more, then stop
                    loop = asyncio.get_running_loop()
                    self.tasks.append(
                        loop.create_task(self.answerer.answer("second, queued?"))
                    )
                    self.tasks.append(loop.create_task(self.answerer.stop()))
                return super().answer_many(questions)

        target = StopsDuringFirstBatch()

        async def main():
            answerer = AsyncAnswerer(target, ServeConfig(max_batch=1))
            target.answerer = answerer
            await answerer.start()
            first = await answerer.answer("first?")
            queued, stopping = target.tasks
            with pytest.raises(RuntimeError, match="serving stopped"):
                await queued
            await stopping
            return first, answerer.snapshot()

        first, stats = asyncio.run(main())
        assert first.value == "0"  # the evaluating batch completed
        assert stats["batches"] == 1 and stats["pending"] == 0
