"""``mega_disk_mixed``: reads beside writes on a 322k-triple SQLite store.

Set-up stream-compiles a mega world (``compile_mega``) into a temp dir and
binds the trained small-suite model to it (``bind_scenarios``: caches off,
``DiskTripleStore``, no expansion).  One ``AsyncAnswerer(workers=2,
max_batch=8)`` serves four closed-loop reader tasks (80 % plain gold rows,
20 % the temporal rows being mutated) **beside** one writer on a fixed
100 writes/s schedule that flips temporal rows old <-> new through
``answerer.apply(delete + add)``.

The only workload on ``kb.disk`` and the only one with writes: it exercises
the quiesce / invalidate / epoch-retry side of ``serve.async_answerer`` that
``http_zipf`` (coalescing, cache) never touches.  Gold is the benchmark's own
model of the KB (:class:`FreshnessModel`): a read issued after a write was
acknowledged must return the post-write value; a read overlapping a write may
return either.

``attempted`` counts reads and writes; ``answers_per_s`` and the latency
metrics count reads only.  The store is not flipped back at the end — the
temp dir it lives in is deleted.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.corpus.mega import MegaSpec, compile_mega
from repro.eval.scenarios import ScenarioSpec, bind_scenarios
from repro.serve.async_answerer import AsyncAnswerer, ServeConfig

from benchmarks.e2e.inputs import Gold
from benchmarks.e2e.measure import HostSpeed, RepResult, clock_slices, percentile
from benchmarks.e2e.spans import LayerTimes, TracedTarget, answer_path_metrics, traced_answerer
from benchmarks.e2e.spec import DATA_SEED
from benchmarks.e2e.workloads import Stopwatch, Workload
from benchmarks.e2e.workloads.http_zipf import answerer_counters

READERS = 4
TEMPORAL_READ_SHARE = 0.2
WRITES_PER_S = 100.0
OPERATION_TIMEOUT_S = 10.0
SLICE_S = 0.2
SERVE_CONFIG = ServeConfig(workers=2, max_batch=8)


class FreshnessModel:
    """Which answers a read of a mutable row may return, given what the
    writer had started and had acknowledged while the read was in flight."""

    def __init__(self, initial: dict[str, str]) -> None:
        self.acked = dict(initial)  # row -> value after the last acknowledged write
        self.writing: dict[str, str] = {}  # row -> value of the write in progress
        self._reading: dict[str, list[set[str]]] = defaultdict(list)

    def begin_read(self, row: str) -> set[str]:
        allowed = {self.acked[row]}
        if row in self.writing:
            allowed.add(self.writing[row])
        self._reading[row].append(allowed)
        return allowed

    def end_read(self, row: str, allowed: set[str], values: tuple[str, ...]) -> bool:
        """True when ``values`` is one of the values the row legitimately had
        between the read's issue and its completion."""
        self._reading[row].remove(allowed)
        return len(values) == 1 and values[0] in allowed

    def begin_write(self, row: str, value: str) -> None:
        self.writing[row] = value
        for allowed in self._reading[row]:  # reads now overlapping this write
            allowed.add(value)

    def ack_write(self, row: str) -> None:
        self.acked[row] = self.writing.pop(row)


@dataclass
class _Drive:
    """What one read/write phase observed."""

    reads: int = 0
    writes: int = 0
    failed: int = 0
    wrong: int = 0
    started: float = 0.0
    wall_s: float = 0.0
    cpu_marks: list[tuple[float, float]] = field(default_factory=list)  # perf_counter, process_time
    read_rows: list[tuple[str, float, float]] = field(default_factory=list)  # question, asked, answered
    write_ms: list[float] = field(default_factory=list)  # from due time
    write_done: list[float] = field(default_factory=list)  # perf_counter of each acknowledgement
    apply_s: list[float] = field(default_factory=list)  # the apply() call alone
    snapshot: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)


class MegaDiskMixed(Workload):
    name = "mega_disk_mixed"
    reports_p99 = True

    def __init__(self, seed: int, smoke: bool, host: HostSpeed) -> None:
        super().__init__(seed, smoke, host)
        self.rng = random.Random(seed)
        self.binding = None

    def setup(self) -> dict[str, float]:
        spec = MegaSpec(
            triples=30_000 if self.smoke else 300_000, seed=DATA_SEED,
            gold_per_chunk=600, temporal_per_chunk=100, churn_per_chunk=100,
        )
        mega_dir = self.scratch() / "mega"
        with Stopwatch() as compile_:
            build = compile_mega(spec, mega_dir)
            build.kb.store.close()
        with Stopwatch() as bind:
            self.binding = bind_scenarios(mega_dir, ScenarioSpec(max_gold=100_000))
        self.plain: list[Gold] = [
            (pair.question, frozenset(pair.meta["values"])) for pair in self.binding.gold["plain"]
        ]
        self.temporal = self.binding.gold["temporal"]
        self.model = FreshnessModel(
            {pair.question: pair.meta["supersede"]["old_value"] for pair in self.temporal}
        )
        self.write_order = list(range(len(self.temporal)))
        self.rng.shuffle(self.write_order)
        self.writes_done = 0
        return {
            "corpus.mega.compile_s": compile_.seconds,
            "corpus.mega.triples_per_s": build.manifest["triples"] / compile_.seconds,
            "eval.scenarios.bind_s": bind.seconds,
        }

    def close(self) -> None:
        if self.binding is not None:
            self.binding.close()
            self.binding = None
        super().close()

    # -- the read/write phase ------------------------------------------------------

    async def _drive(self, target, seconds: float, trace_writes: bool = False) -> _Drive:
        drive = _Drive()
        store, model, rng, tracer = self.binding.store, self.model, self.rng, self.tracer
        host = self.host
        async with AsyncAnswerer(target, SERVE_CONFIG) as answerer:
            drive.started = started = time.perf_counter()
            deadline = started + seconds

            async def watch_cpu() -> None:
                """Slice boundaries: this process's CPU clock every ``SLICE_S``."""
                while time.perf_counter() < deadline:
                    drive.cpu_marks.append((time.perf_counter(), time.process_time()))
                    await asyncio.sleep(SLICE_S)

            async def reader() -> None:
                while time.perf_counter() < deadline:
                    if rng.random() < TEMPORAL_READ_SHARE:
                        question = rng.choice(self.temporal).question
                        allowed = model.begin_read(question)
                    else:
                        question, gold = rng.choice(self.plain)
                        allowed = None
                    drive.reads += 1
                    asked = time.perf_counter()
                    try:
                        async with asyncio.timeout(OPERATION_TIMEOUT_S):
                            result = await answerer.answer(question)
                    except Exception:  # refused, expired or raised: a failed read
                        drive.failed += 1
                        if allowed is not None:
                            model.end_read(question, allowed, ())
                        continue
                    drive.read_rows.append((question, asked, time.perf_counter()))
                    if allowed is not None:
                        drive.wrong += not model.end_read(question, allowed, result.values)
                    else:
                        drive.wrong += frozenset(result.values) != gold

            async def writer() -> None:
                due = started
                while due < deadline:
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    pair = self.temporal[self.write_order[self.writes_done % len(self.write_order)]]
                    self.writes_done += 1
                    edit = pair.meta["supersede"]
                    to_new = model.acked[pair.question] == edit["old_value"]
                    gone, added = (
                        (edit["old_object"], edit["new_object"]) if to_new
                        else (edit["new_object"], edit["old_object"])
                    )

                    def supersede(subject=edit["subject"], predicate=edit["predicate"]) -> None:
                        with tracer.span("kb.disk.write") if trace_writes else nullcontext():
                            store.delete(subject, predicate, gone)
                            store.add(subject, predicate, added)

                    drive.writes += 1
                    model.begin_write(pair.question, edit["new_value"] if to_new else edit["old_value"])
                    applying = time.perf_counter()
                    try:
                        async with asyncio.timeout(OPERATION_TIMEOUT_S):
                            await answerer.apply(supersede)
                    except Exception:  # a write that raised or hung is a failed operation
                        drive.failed += 1
                        raise  # the model no longer knows the row's state: stop the rep
                    done = time.perf_counter()
                    model.ack_write(pair.question)
                    drive.apply_s.append(done - applying)
                    drive.write_ms.append((done - due) * 1000.0)
                    drive.write_done.append(done)
                    due += host.now() / WRITES_PER_S  # 100 writes per second *at reference speed*

            await asyncio.gather(watch_cpu(), writer(), *(reader() for _ in range(READERS)))
            drive.cpu_marks.append((time.perf_counter(), time.process_time()))
            drive.wall_s = drive.cpu_marks[-1][0] - started
            drive.snapshot = answerer.snapshot()
            drive.stages = answerer.metrics.snapshot()["stages"]
        return drive

    def warm_up(self, seconds: float) -> None:
        """Touch every gold row once, then a discarded rep: the first read of
        a row pulls its B-tree pages into SQLite's page cache, and a time-boxed
        warm-up alone leaves a seed-dependent share of them cold."""
        questions = [question for question, _gold in self.plain]
        questions += [pair.question for pair in self.temporal]
        for start in range(0, len(questions), 256):
            self.binding.target.answer_many(questions[start : start + 256])
        self.rep(seconds)

    def rep(self, seconds: float) -> RepResult:
        drive = asyncio.run(self._drive(self.binding.target, seconds))
        latencies_ms = [(done - asked) * 1000.0 for _q, asked, done in drive.read_rows]
        answered = [done for _q, _asked, done in drive.read_rows]
        rep = RepResult(
            attempted=drive.reads + drive.writes, failed=drive.failed, wrong=drive.wrong,
            latencies_ms=latencies_ms,
            speed=self.host.factor(drive.started, drive.started + drive.wall_s),
        )
        # a slice runs from one reading of the CPU clock to the next
        for start, end, cpu_s in clock_slices(drive.cpu_marks, SLICE_S):
            factor = self.host.factor(start, end)
            low, high = bisect.bisect_left(answered, start), bisect.bisect_left(answered, end)
            rep.record_work(high - low, end - start, cpu_s, factor)
            rep.record_latencies(latencies_ms[low:high], factor)
            low, high = bisect.bisect_left(drive.write_done, start), bisect.bisect_left(drive.write_done, end)
            if high > low:
                rep.record("write_p50_ms", percentile(drive.write_ms[low:high], 50), factor)
                rep.record("write_p90_ms", percentile(drive.write_ms[low:high], 90), factor)
        rep.diag.update(answerer_counters(drive.snapshot, drive.stages))
        return rep

    # -- traced pass ---------------------------------------------------------------

    def traced(self, seconds: float, untraced: dict[str, float]) -> dict[str, float]:
        tracer = self.tracer
        target = TracedTarget(traced_answerer(self.binding.target, tracer, "kb.disk"), tracer)
        drive = asyncio.run(self._drive(target, seconds, trace_writes=True))
        spans = list(tracer.spans)
        rows = drive.read_rows
        answers = len(rows)
        evaluated = sum(1 for span in spans if span[1] == "nlp.ner")  # caches are off
        # epoch retries evaluate a question more than once, so per-answer layer
        # costs are over evaluations and coverage over evaluation wall time
        metrics, attributed_us = answer_path_metrics(
            [span for span in spans if span[1] != "kb.disk.write"],
            self.binding.target, [question for question, _asked, _done in rows],
            evaluated, evaluated,
        )
        times = LayerTimes(spans)
        write_us = times.total_s["kb.disk.write"] * 1e6 / max(times.calls["kb.disk.write"], 1)
        metrics["kb.disk.write_us"] = write_us
        metrics["serve.async_answerer.apply_us"] = (
            sum(drive.apply_s) * 1e6 / max(len(drive.apply_s), 1) - write_us
        )
        hops_us = [target.hop_s(q, asked, done) * 1e6 for q, asked, done in rows]
        metrics["serve.async_answerer.hop_us_per_answer"] = sum(hops_us) / max(answers, 1)
        metrics["core.model.ranked_templates"] = float(target.answerer.cache_info()["ranked_templates"])
        metrics["trace.coverage"] = attributed_us * evaluated / 1e6 / times.total_s["core.online"]
        traced_rate = answers / self.host.reference_seconds(drive.started, drive.started + drive.wall_s)
        metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced["answers_per_s"]
        return metrics
