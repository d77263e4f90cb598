"""Serving executors: serial == thread == the synchronous path.

Routing the serving ``answer_many`` path through either of its executors
changes nothing about the output: ``AsyncAnswerer`` results over a
randomized duplicate-heavy stream equal the synchronous path, serial and
threaded, on the real trained system.  ``ServeConfig`` names the two
executors and rejects anything else.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import AsyncAnswerer, LoadSpec, ServeConfig, build_request_stream


class TestServingEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("stream_seed", [3, 11])
    def test_answer_many_equals_sync(self, backend, stream_seed, kbqa_fb, suite):
        """Async results over a randomized duplicate-heavy stream equal the
        synchronous path on both serving executors."""
        pool = [q.question for q in suite.benchmark("qald3").bfqs()][:12]
        stream = build_request_stream(
            pool,
            LoadSpec(requests=48, concurrency=8, duplicate_rate=0.5, seed=stream_seed),
        )
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

