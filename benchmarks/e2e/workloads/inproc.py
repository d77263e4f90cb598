"""``inproc_unique`` and ``inproc_heldout``: the core answer path, one thread.

Closed loop, zero think time: ``system.answer_many`` over 256-question
slices (32 on ``inproc_heldout``) of a seed-shuffled cycle of the suite's distinct gold factoid
questions.  The cycle (about 21k at default scale) is longer than the answer
cache (2048) and the NER/concept LRUs (8192), so every answer pays the full
tokenize -> NER -> conceptualize -> template -> Eq 7 -> KB path and
``serve.*`` does nothing.  ``inproc_heldout`` sends each question through a
held-out rewrite with the fallback lane on, so Eq 7 abstains and
``core.fallback`` + ``nlp.embed`` dominate.

Latency here is amortized: a slice's wall time divided by its length.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.core.fallback import FallbackConfig, FallbackIndex
from repro.core.system import KBQA, KBQAConfig
from repro.suite import build_suite

from benchmarks.e2e.inputs import Gold, gold_factoids, heldout_cycle, shuffled_cycle, take
from benchmarks.e2e.measure import RepResult, percentile
from benchmarks.e2e.spans import answer_path_metrics, traced_answerer
from benchmarks.e2e.spec import DATA_SEED
from benchmarks.e2e.workloads import Stopwatch, Workload



def cache_shares(before: dict, after: dict, answers: int) -> tuple[dict[str, float], int]:
    """Hit shares of the three serving caches between two ``cache_info()``
    snapshots, and how many answers went past the answer cache (every such
    answer consults the NER memo exactly once, hit or miss)."""

    def delta(key: str) -> int:
        return int(after.get(key, 0)) - int(before.get(key, 0))

    evaluated = delta("ner_hits") + delta("ner_misses")
    concept_lookups = delta("concepts_hits") + delta("concepts_misses")
    shares = {
        "core.online.answer_cache_hit_share": 1.0 - evaluated / max(answers, 1),
        "core.online.ner_cache_hit_share": delta("ner_hits") / max(evaluated, 1),
        "core.online.concept_cache_hit_share": delta("concepts_hits") / max(concept_lookups, 1),
    }
    return shares, evaluated


class _Inproc(Workload):
    config = KBQAConfig()
    slice = 256  # questions per answer_many call

    def _stream(self, gold: list[Gold]) -> Iterator[Gold]:
        raise NotImplementedError

    def setup(self) -> dict[str, float]:
        with Stopwatch() as build:
            suite = build_suite("small" if self.smoke else "default", seed=DATA_SEED)
        with Stopwatch() as train:
            self.system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer, self.config)
        self.stream = self._stream(gold_factoids(suite.corpus))
        return {"data.suite_build_s": build.seconds, "train_s": train.seconds}

    def close(self) -> None:
        system = getattr(self, "system", None)
        if system is not None:
            system.close()
        super().close()

    def rep(self, seconds: float) -> RepResult:
        """One ``answer_many`` call is one slice."""
        rep = RepResult()
        timings: list[tuple[int, float, float, float]] = []  # answers, start, end, cpu_s
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            batch = take(self.stream, self.slice)
            questions = [question for question, _gold in batch]
            rep.attempted += len(batch)
            cpu_0, wall_0 = time.thread_time(), time.perf_counter()  # this thread: not the sampler's CPU
            try:
                results = self.system.answer_many(questions)
            except Exception:  # an operation that raises is a failed operation
                rep.failed += len(batch)
                continue
            wall_1, cpu_1 = time.perf_counter(), time.thread_time()
            timings.append((len(batch), wall_0, wall_1, cpu_1 - cpu_0))
            rep.wrong += sum(
                frozenset(result.values) != gold for result, (_q, gold) in zip(results, batch)
            )
        rep.speed = self.host.factor(started, time.perf_counter())
        for answers, wall_0, wall_1, cpu_s in timings:
            factor = self.host.factor(wall_0, wall_1)
            rep.record_work(answers, wall_1 - wall_0, cpu_s, factor)
            amortized_ms = (wall_1 - wall_0) * 1000.0 / answers
            rep.latencies_ms.append(amortized_ms)
            rep.record("latency_p50_ms", amortized_ms, factor)
        # slices are whole batches here, so the 90th percentile is over slices
        rep.slices["latency_p90_ms"] = [percentile(rep.slices["latency_p50_ms"], 90)]
        rep.raw["latency_p90_ms"] = [percentile(rep.raw["latency_p50_ms"], 90)]
        return rep

    def traced(self, seconds: float, untraced: dict[str, float]) -> dict[str, float]:
        tracer = self.tracer
        answerer = traced_answerer(self.system.answerer, tracer)
        asked: list[str] = []
        in_spans_s = 0.0
        before = answerer.cache_info()
        loop_start = time.perf_counter()
        deadline = loop_start + seconds
        while time.perf_counter() < deadline:
            questions = [question for question, _gold in take(self.stream, self.slice)]
            start = time.perf_counter()
            with tracer.span("core.online"):
                answerer.answer_many(tracer.marked(questions))
            in_spans_s += time.perf_counter() - start
            asked.extend(questions)
        loop_s = time.perf_counter() - loop_start
        after = answerer.cache_info()
        spans = list(tracer.spans)

        answers = len(asked)
        shares, evaluated = cache_shares(before, after, answers)
        metrics, attributed_us = answer_path_metrics(
            spans, self.system.answerer, asked, answers, evaluated
        )
        metrics.update(shares)
        metrics["core.model.ranked_templates"] = float(after["ranked_templates"])
        gate_queries = sum(1 for span in spans if span[1] == "core.fallback")
        metrics["core.fallback.gate_pass_share"] = tracer.gate_passes / max(gate_queries, 1)
        if self.config.fallback:
            with Stopwatch() as build:
                FallbackIndex.build(
                    self.system.model,
                    FallbackConfig(
                        threshold=self.config.fallback_threshold, margin=self.config.fallback_margin
                    ),
                )
            metrics["core.fallback.build_s"] = build.seconds
        metrics["trace.coverage"] = attributed_us * answers / 1e6 / loop_s
        traced_rate = answers / in_spans_s * self.host.factor(loop_start, loop_start + loop_s)
        metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced["answers_per_s"]
        return metrics


class InprocUnique(_Inproc):
    name = "inproc_unique"

    def _stream(self, gold: list[Gold]) -> Iterator[Gold]:
        return shuffled_cycle(gold, self.seed)


class InprocHeldout(_Inproc):
    name = "inproc_heldout"
    config = KBQAConfig(fallback=True)
    slice = 32  # about 30 ms, as 256 are on inproc_unique

    def _stream(self, gold: list[Gold]) -> Iterator[Gold]:
        return heldout_cycle(gold, self.seed)
