"""``http_zipf``: the real user path — a ``kbqa serve`` child over HTTP.

The child is ``python -m repro.cli serve --scale small --port 0`` with every
default (thread executor); ready is its first stdout line.  Questions are
drawn Zipf(1.1) from the small suite's distinct gold factoids, so the answer
cache and coalescing absorb most of the core pipeline and ``serve.http`` /
``serve.app`` / ``serve.async_answerer`` do most of the work.

Each rep is a **closed-loop** phase (8 keep-alive connections ->
``answers_per_s``, ``cpu_ms_per_answer`` from the child's ``/proc`` CPU
clock) followed by an **open-loop** phase (Poisson 1000 qps over 16
connections -> ``latency_p50_ms`` / ``latency_p90_ms`` from the due time).
1000 qps is about a quarter of closed-loop capacity, so no backlog grows; it
is 1000 per second *at reference speed* (the schedule is stretched by the
host-speed factor), so a slow host is not offered a heavier load.

Generator and server share **one core**.  On two, each core's speed wanders
on its own, the closed loop's rate follows whichever side is slower at the
moment, and the server's batch sizes (hence its CPU per answer) follow the
ratio of the two - quartile spreads of 0.3-0.5 between identical runs.  On
one core a single speed governs everything, the generator's share of it is
a constant 0.40, and the one speed sampler of this process reads it.

The traced pass cannot reach into the child, so it replays the same stream
through an in-process replica (same suite, ``AsyncAnswerer`` with the CLI's
defaults over a span-recording target) and replays the HTTP layer's
module-level functions standalone; counters come from the child's ``/stats``.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import random
import select
import subprocess
import sys
import time
from typing import Iterator

from repro.core.system import KBQA
from repro.serve.app import result_payload
from repro.serve.async_answerer import AsyncAnswerer, ServeConfig
from repro.serve.http import read_request, response_bytes
from repro.suite import build_suite

from benchmarks.e2e import ROOT
from benchmarks.e2e.inputs import Gold, gold_factoids, poisson_due_times, zipf_draws
from benchmarks.e2e.loadgen import Connection, closed_loop, open_loop, request_bytes
from benchmarks.e2e.measure import (
    HostSpeed,
    RepResult,
    child_cpu_s,
    child_peak_rss_mb,
    clock_slices,
    percentile,
    time_slices,
)
from benchmarks.e2e.spans import (
    REPLAY_SAMPLE,
    TracedTarget,
    answer_path_metrics,
    timed_us_per_item,
    traced_answerer,
)
from benchmarks.e2e.spec import DATA_SEED
from benchmarks.e2e.workloads import Workload
from benchmarks.e2e.workloads.inproc import cache_shares

ZIPF_EXPONENT = 1.1
CLOSED_CONNECTIONS = 8
OPEN_CONNECTIONS = 16
OPEN_RATE_QPS = 1000.0
READY_TIMEOUT_S = 120.0
SLICE_S = 0.2
# CLI defaults of `kbqa serve`, for the in-process replica
CLI_SERVE_CONFIG = ServeConfig(max_batch=16, max_pending=256, workers=2, executor="thread")


def answerer_counters(counts: dict, stages: dict) -> dict[str, float]:
    """``serve.async_answerer.*`` rows from ``ServeStats`` counters (of a fresh
    answerer, or the difference of two ``/stats`` reads) and the stage
    histograms of ``ServeMetrics.snapshot()``."""

    def mean_ms(stage: str) -> float:
        return float((stages.get(stage) or {}).get("mean_ms") or 0.0)

    prefix = "serve.async_answerer."
    rows = {
        "queue_wait_mean_ms": mean_ms("queue_wait"),
        "batch_linger_mean_ms": mean_ms("batch_linger"),
        "evaluate_mean_ms": mean_ms("evaluate"),
        "mean_batch": counts["evaluated"] / max(counts["batches"], 1),
        "coalesced_share": counts["coalesced"] / max(counts["requests"], 1),
    }
    for counter in ("max_batch_seen", "rejected", "deadline_expired", "degraded",
                    "invalidations", "stale_retries", "stale_delivered"):
        rows[counter] = float(counts[counter])
    return {prefix + name: value for name, value in rows.items()}


class HttpZipf(Workload):
    name = "http_zipf"
    reports_p99 = True

    def __init__(self, seed: int, smoke: bool, host: HostSpeed) -> None:
        super().__init__(seed, smoke, host)
        self.child: subprocess.Popen | None = None
        self.rng = random.Random(seed)

    # -- set-up / tear-down ---------------------------------------------------

    def setup(self) -> dict[str, float]:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # the child inherits this (pinned) process's core
        self.child = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--scale", "small", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        # the generator's gold comes from the same deterministic suite
        self.suite = build_suite("small", seed=DATA_SEED)
        self.gold = gold_factoids(self.suite.corpus)
        self.host_name, self.port = self._await_ready()
        self.stats_at_ready = asyncio.run(self._stats())
        return {}

    def _await_ready(self) -> tuple[str, int]:
        assert self.child is not None and self.child.stdout is not None
        readable, _, _ = select.select([self.child.stdout], [], [], READY_TIMEOUT_S)
        line = self.child.stdout.readline().decode("utf-8", "replace") if readable else ""
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"kbqa serve did not become ready (first line: {line!r})")
        host, port = line.split()[2].removeprefix("http://").rsplit(":", 1)
        return host, int(port)

    def close(self) -> None:
        child = self.child
        if child is not None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            if child.stdout is not None:
                child.stdout.close()
            self.child = None
        super().close()

    def peak_rss_mb(self) -> float:
        assert self.child is not None
        return child_peak_rss_mb(self.child.pid)

    async def _stats(self) -> dict:
        connection = Connection(self.host_name, self.port)
        try:
            return await connection.get_json("/stats")
        finally:
            await connection.close()

    # -- measured reps ----------------------------------------------------------

    def _draw(self, count: int) -> list[Gold]:
        return zipf_draws(self.gold, count, ZIPF_EXPONENT, self.rng)

    def _stream(self) -> Iterator[Gold]:
        """Endless Zipf draws, for closed loops that take what they can."""
        while True:
            yield from self._draw(4096)

    def rep(self, seconds: float) -> RepResult:
        return asyncio.run(self._rep(seconds))

    async def _rep(self, seconds: float) -> RepResult:
        assert self.child is not None
        pid, host = self.child.pid, self.host
        phase_s = seconds / 2
        due = poisson_due_times(OPEN_RATE_QPS, phase_s, self.rng)
        open_items = self._draw(len(due))
        connections = [Connection(self.host_name, self.port) for _ in range(OPEN_CONNECTIONS)]
        cpu_marks: list[tuple[float, float]] = []  # (perf_counter, the child's CPU seconds)

        async def watch_cpu() -> None:
            while True:
                cpu_marks.append((time.perf_counter(), child_cpu_s(pid)))
                await asyncio.sleep(SLICE_S)

        try:
            await asyncio.gather(*(connection.open() for connection in connections))
            watching = asyncio.ensure_future(watch_cpu())
            closed = await closed_loop(connections[:CLOSED_CONNECTIONS], self._stream(), phase_s)
            watching.cancel()
            mark_1 = time.perf_counter()
            cpu_marks.append((mark_1, child_cpu_s(pid)))
            opened = await open_loop(connections, open_items, due, host.now)
            mark_2 = time.perf_counter()
        finally:
            await asyncio.gather(*(connection.close() for connection in connections))

        rep = RepResult(
            attempted=closed.attempted + opened.attempted,
            failed=closed.failed + opened.failed,
            wrong=closed.wrong + opened.wrong,
            latencies_ms=opened.latencies_ms,
            speed=host.factor(cpu_marks[0][0], mark_2),
        )
        # closed loop: a slice runs from one reading of the child's CPU clock to the next
        for start, end, cpu_s in clock_slices(cpu_marks, SLICE_S):
            answers = bisect.bisect_left(closed.finished, end) - bisect.bisect_left(closed.finished, start)
            rep.record_work(answers, end - start, cpu_s, host.factor(start, end))
        # open loop: the latencies of the answers that arrived in each slice
        for start, end in time_slices(mark_1, mark_2, SLICE_S):
            low, high = bisect.bisect_left(opened.finished, start), bisect.bisect_left(opened.finished, end)
            rep.record_latencies(opened.latencies_ms[low:high], host.factor(start, end))
        rep.diag["loadgen.lag_p99_ms"] = percentile(opened.lags_ms, 99)
        rep.diag["loadgen.cpu_share"] = closed.cpu_s / closed.wall_s
        return rep

    # -- traced pass ---------------------------------------------------------------

    def traced(self, seconds: float, untraced: dict[str, float]) -> dict[str, float]:
        metrics = self._server_counters(asyncio.run(self._stats()))
        system = KBQA.train(self.suite.freebase, self.suite.corpus, self.suite.conceptualizer)
        try:
            metrics.update(asyncio.run(self._replica(system, seconds)))
        finally:
            system.close()
        return metrics

    def _server_counters(self, stats: dict) -> dict[str, float]:
        """Per-layer numbers the child publishes itself, over everything it has
        served since it became ready (warm-up rep included)."""
        before = self.stats_at_ready["serve"]
        counts = {
            key: value - before[key]
            for key, value in stats["serve"].items()
            if isinstance(value, int) and not isinstance(value, bool)
        }
        shares, _evaluated = cache_shares(
            self.stats_at_ready["caches"], stats["caches"], max(counts["requests"], 1)
        )
        return {**shares, **answerer_counters(counts, stats["metrics"]["stages"])}

    async def _replica(self, system: KBQA, seconds: float) -> dict[str, float]:
        """Same stream through an in-process ``AsyncAnswerer``: untraced for
        the reference rate, then over the span-recording target."""
        half = seconds / 2

        async def drive(answerer: AsyncAnswerer, stream, clients: int, budget_s: float):
            """Closed loop of ``clients`` tasks; returns (question, asked, answered) rows."""
            rows: list[tuple[str, float, float]] = []
            deadline = time.perf_counter() + budget_s

            async def client() -> None:
                while time.perf_counter() < deadline:
                    question, _gold = next(stream)
                    asked = time.perf_counter()
                    await answerer.answer(question)
                    rows.append((question, asked, time.perf_counter()))

            await asyncio.gather(*(client() for _ in range(clients)))
            return rows

        stream = self._stream()
        async with AsyncAnswerer(system, CLI_SERVE_CONFIG) as plain:
            await drive(plain, stream, CLOSED_CONNECTIONS, half / 4)  # warm the caches
            started = time.perf_counter()
            rows = await drive(plain, stream, CLOSED_CONNECTIONS, half)
            untraced_rate = len(rows) / (time.perf_counter() - started)

        tracer = self.tracer
        target = TracedTarget(traced_answerer(system.answerer, tracer), tracer)
        async with AsyncAnswerer(target, CLI_SERVE_CONFIG) as answerer:
            await drive(answerer, stream, CLOSED_CONNECTIONS, half / 4)
            warm_spans = len(tracer.spans)
            before = target.answerer.cache_info()
            started = time.perf_counter()
            rows = await drive(answerer, stream, CLOSED_CONNECTIONS, half)
            traced_rate = len(rows) / (time.perf_counter() - started)
            after = target.answerer.cache_info()
            spans = tracer.spans[warm_spans:]
            # one request in flight: the answerer's share of a lone HTTP request
            lone = await drive(answerer, stream, 1, 0.2)
        answerer_p50_us = percentile([(done - asked) * 1e6 for _q, asked, done in lone], 50)

        answers = len(rows)
        asked_questions = [question for question, _asked, _done in rows]
        # the cache shares reported are the child's own, from /stats
        _shares, evaluated = cache_shares(before, after, answers)
        metrics, attributed_us = answer_path_metrics(
            spans, system.answerer, asked_questions, answers, evaluated
        )
        hops_us = [target.hop_s(q, asked, done) * 1e6 for q, asked, done in rows]
        metrics["serve.async_answerer.hop_us_per_answer"] = sum(hops_us) / max(len(hops_us), 1)
        metrics["core.model.ranked_templates"] = float(after["ranked_templates"])

        http = await self._http_layer(system, asked_questions[:REPLAY_SAMPLE])
        metrics.update(http)
        lone_http_us = await self._lone_http_p50_us(asked_questions[:300])
        metrics["serve.app.socket_loop_us"] = max(
            lone_http_us - answerer_p50_us - http["serve.http.parse_us"]
            - http["serve.app.payload_us"] - http["serve.http.serialize_us"], 0.0,
        )
        evaluation_s = sum(end - start for _i, layer, start, end, _p, _r in spans if layer == "core.online")
        metrics["trace.coverage"] = attributed_us * answers / 1e6 / max(evaluation_s, 1e-9)
        metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
        return metrics

    async def _http_layer(self, system: KBQA, questions: list[str]) -> dict[str, float]:
        """Standalone replays of ``read_request``, ``result_payload`` and
        ``response_bytes`` on this stream's requests and answers."""
        results = system.answer_many(questions)
        wire = [request_bytes(self.host_name, question) for question in questions]

        started = time.perf_counter()
        for raw in wire:
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            await read_request(reader)
        parse_us = (time.perf_counter() - started) * 1e6 / len(wire)

        payloads = [result_payload(result) for result in results]
        return {
            "serve.http.parse_us": parse_us,
            "serve.app.payload_us": timed_us_per_item(result_payload, results),
            "serve.http.serialize_us": timed_us_per_item(
                lambda payload: response_bytes(200, payload), payloads
            ),
        }

    async def _lone_http_p50_us(self, questions: list[str]) -> float:
        """Median round trip of one keep-alive connection with nothing else in flight."""
        connection = Connection(self.host_name, self.port)
        latencies: list[float] = []
        try:
            await connection.open()
            for question in questions:
                started = time.perf_counter()
                await connection.roundtrip(request_bytes(self.host_name, question))
                latencies.append((time.perf_counter() - started) * 1e6)
        finally:
            await connection.close()
        return percentile(latencies, 50)
