"""Concurrency hygiene: serving under write churn and clean shutdown.

Serving: a request admitted after a KB mutation + invalidation can never
observe a pre-mutation answer, however many readers are in flight; stopping
an answerer joins its evaluation threads and fails what was still queued.
Timing windows are held open deterministically with sentinel files: the
target reports "mid-batch" by writing a file and blocks until the test
writes the release file.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
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


class FileGatedTarget:
    """A scripted target whose evaluations signal through the FS.

    Each ``answer_many`` appends a line to ``started_path`` (visible to the
    test as "an evaluation is mid-batch") and then blocks until
    ``gate_path`` exists.
    """

    def __init__(self, value: str, started_path: str, gate_path: str) -> None:
        self.value = value
        self.started_path = started_path
        self.gate_path = gate_path

    def answer_many(self, questions):
        """Report mid-batch, hold until released, answer with the value."""
        with open(self.started_path, "a", encoding="utf-8") as handle:
            handle.write(f"{self.value}\n")
        deadline = time.monotonic() + TIMEOUT_S
        while not os.path.exists(self.gate_path):
            if time.monotonic() > deadline:
                raise RuntimeError("gate never opened")
            time.sleep(0.005)
        return [_result(q, self.value) for q in questions]


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


async def _wait_for(path: str, lines: int = 1) -> None:
    deadline = time.monotonic() + TIMEOUT_S
    while True:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                if len(handle.readlines()) >= lines:
                    return
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {path} x{lines}")
        await asyncio.sleep(0.005)


class TestSnapshotFreshness:
    def test_post_apply_requests_always_see_the_write(self):
        """Churn loop: after every apply() the next answer must carry the
        new version — the write-quiescence path, repeated."""
        target = VersionedTarget()
        config = ServeConfig(workers=2, max_batch=4)

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
        """Readers flooding the pool while a writer bumps versions: every
        delivered answer is a version that existed, and versions observed
        by successive post-apply probes never decrease."""
        target = VersionedTarget()
        config = ServeConfig(workers=2, max_batch=4, max_pending=512)

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


def _evaluation_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate() if t.name.startswith("kbqa-serve-eval")
    ]


class TestCleanShutdown:
    def test_stop_leaves_no_worker_processes(self):
        """stop() joins the evaluation threads, and serving never forked."""
        target = VersionedTarget()
        config = ServeConfig(workers=2)

        async def main():
            async with AsyncAnswerer(target, config) as answerer:
                await answerer.answer_many([f"q{i}" for i in range(8)])
                assert _evaluation_threads()
            assert answerer._executor is None

        asyncio.run(main())
        assert _evaluation_threads() == []
        assert multiprocessing.active_children() == []

    def test_repeated_cycles_do_not_accumulate_workers(self):
        target = VersionedTarget()

        async def one_cycle(index: int):
            async with AsyncAnswerer(target, ServeConfig(workers=2)) as answerer:
                result = await answerer.answer(f"cycle {index}?")
                assert result.value == "0"

        for index in range(3):
            asyncio.run(one_cycle(index))
        assert _evaluation_threads() == []

    def test_stop_fails_queued_requests_deterministically(self, tmp_path):
        """Queued-but-undispatched requests fail with 'serving stopped'
        (not a hang) even while an evaluation holds the only slot."""
        started = str(tmp_path / "started")
        gate = str(tmp_path / "gate")
        target = FileGatedTarget("v", started, gate)
        config = ServeConfig(workers=1, max_batch=1)

        async def main():
            answerer = AsyncAnswerer(target, config)
            await answerer.start()
            inflight = asyncio.ensure_future(answerer.answer("first?"))
            await _wait_for(started)  # slot taken, evaluation blocked on gate
            queued = asyncio.ensure_future(answerer.answer("second, queued?"))
            await asyncio.sleep(0.02)  # let the queued entry land
            # begin shutdown while the evaluation still holds the gate: the
            # queued request must fail *before* the slot could free up
            stop_task = asyncio.ensure_future(answerer.stop())
            with pytest.raises(RuntimeError, match="serving stopped"):
                await queued
            (tmp_path / "gate").write_text("go\n")
            await stop_task
            first = await inflight  # in-flight batch completed on stop
            assert first.value == "v"
            return True

        assert asyncio.run(main())

