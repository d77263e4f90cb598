"""The cache-hit lane: never stale, never a different answer, always counted.

``AsyncAnswerer`` answers a question its target's answer cache holds on the
event loop, without the queue.  Three contracts:

* **freshness** — under a seeded interleaving of every write path
  (``apply`` add/delete, direct store edits from another thread, model
  swaps, cache clears) and every read path (``answer``, ``answer_nowait``,
  ``POST /answer``), a read issued after an acknowledged write equals an
  uncached evaluation at that instant; the first probe after ``apply``
  returns already reads past the write; the lane is off where it could not
  be right;
* **equivalence** — a lane result equals the queue result as a full
  dataclass, question echo included;
* **conservation** — every accepted request is exactly one of: a lane hit,
  a coalesced joiner, a queued evaluation;
* **batch admission** — a client batch is admitted on the evaluations it
  needs, and a question the lane answers needs none.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import replace

import pytest

from repro.core.model import TemplateModel
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.kb.triple import make_literal
from repro.serve import AsyncAnswerer, OverloadedError, ServeConfig, normalized_key
from repro.serve.app import KBQAServer

from tests.conftest import pick_entity
from tests.serve_harness import parse_prometheus_text

TIMEOUT_S = 30.0


@pytest.fixture(scope="module")
def lane_system(suite):
    """A trained system over a private KB copy (the tests write to it)."""
    system = KBQA.train(
        compile_freebase_like(suite.world), suite.corpus, suite.conceptualizer
    )
    yield system
    system.close()


def _uncached(system: KBQA) -> OnlineAnswerer:
    """The reference: same live KB view and model, no cache of any kind."""
    return OnlineAnswerer(
        system.learn_result.kbview,
        system.learn_result.ner,
        system.conceptualizer,
        system.answerer.model,
        max_concepts=system.config.max_concepts_online,
        answer_cache_size=0,
    )


class QueueOnly:
    """A target without the probe: every request takes the queue."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def answer_many(self, questions):
        return self.inner.answer_many(questions)


def _population_questions(suite, system, count: int) -> list[tuple[str, str]]:
    """(question, entity node) of ``count`` answerable population questions."""
    found = []
    for entity in suite.world.of_type("city"):
        question = f"what is the population of {entity.name}?"
        result = system.answer(question)
        if result.answered:
            found.append((question, result.entity))
        if len(found) == count:
            return found
    raise AssertionError(f"only {len(found)} answerable city questions")


def _surface(question: str, rng: random.Random) -> str:
    """Another spelling of ``question`` with the same normalized key."""
    variant = rng.choice(
        [question, question.upper(), question.replace(" ", "  "), "  " + question]
    )
    assert normalized_key(variant) == normalized_key(question)
    return variant


async def _roundtrip(port: int, wire: bytes) -> tuple[int, bytes]:
    """(status, body) of one request on a fresh connection, from inside the loop."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(wire)
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), TIMEOUT_S)
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        body = await asyncio.wait_for(reader.readexactly(length), TIMEOUT_S)
        return int(head[9:12]), body
    finally:
        writer.close()
        await writer.wait_closed()


async def _post(port: int, path: str, payload: dict) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    head = f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    status, reply = await _roundtrip(port, head.encode("latin-1") + body)
    return status, json.loads(reply)


async def _post_answer(port: int, question: str) -> tuple[int, dict]:
    return await _post(port, "/answer", {"question": question})


async def _get(port: int, path: str) -> tuple[int, bytes]:
    return await _roundtrip(port, f"GET {path} HTTP/1.1\r\n\r\n".encode("latin-1"))


class TestFreshness:
    def test_seeded_interleaving_of_writes_and_reads(self, suite, lane_system):
        """Every read after an acknowledged write equals an uncached
        evaluation at that instant, through all three read paths."""
        system = lane_system
        rng = random.Random(20260928)
        questions = _population_questions(suite, system, 6)
        original_model = system.answerer.model
        city = pick_entity(suite.world, "city", "population", "area")
        area_path = system.answer(f"what is the area of {city.name}?").predicate
        assert area_path is not None
        area_model = TemplateModel()
        for template in original_model.templates():
            area_model.set_distribution(template, {str(area_path): 1.0}, 1.0)
        reference = _uncached(system)
        added: set[tuple[str, str]] = set()  # (node, literal) currently injected
        reads = {"answer": 0, "nowait_hit": 0, "nowait_miss": 0, "http": 0}

        async def read(server: KBQAServer) -> None:
            base, _node = rng.choice(questions)
            question = _surface(base, rng)
            expected = reference.answer(question)
            how = rng.choice(["answer", "nowait", "http"])
            if how == "answer":
                got = await server.answerer.answer(question)
                reads["answer"] += 1
            elif how == "nowait":
                got = server.answerer.answer_nowait(question)
                reads["nowait_hit" if got is not None else "nowait_miss"] += 1
                if got is None:
                    got = await server.answerer.answer(question)
            else:
                status, payload = await _post_answer(server.port, question)
                assert status == 200 and payload["degraded"] is False
                assert payload["question"] == question
                assert payload["values"] == list(expected.values)
                reads["http"] += 1
                return
            assert got == expected

        async def write(server: KBQAServer) -> None:
            loop = asyncio.get_running_loop()
            _question, node = rng.choice(questions)
            literal = make_literal(str(rng.randrange(10**6, 10**7)))
            op = rng.choice(
                ["apply_add", "apply_delete", "direct_add", "direct_delete",
                 "replace_model", "clear_caches"]
            )
            if op.endswith("_delete"):
                if not added:
                    return
                node, literal = rng.choice(sorted(added))
            mutate = system.add_fact if op.endswith("_add") else system.delete_fact
            if op.startswith("apply_"):
                changed = await server.answerer.apply(
                    lambda: mutate(node, "population", literal)
                )
            elif op.startswith("direct_"):  # the change-stream path
                changed = await loop.run_in_executor(
                    None, mutate, node, "population", literal
                )
            elif op == "replace_model":
                swapped = (
                    area_model if system.answerer.model is original_model
                    else original_model
                )
                system.answerer.replace_model(swapped)
                reference.replace_model(swapped)
                return
            else:
                system.answerer.clear_caches()
                return
            assert changed is True
            (added.add if op.endswith("_add") else added.discard)((node, literal))

        async def main() -> dict:
            async with KBQAServer(system, ServeConfig(max_batch=4)) as server:
                for _step in range(240):
                    await (write(server) if rng.random() < 0.25 else read(server))
                return server.answerer.snapshot()

        try:
            stats = asyncio.run(main())
        finally:
            for node, literal in added:
                system.delete_fact(node, "population", literal)
            system.answerer.replace_model(original_model)
        # the schedule exercised every path it claims to
        assert min(reads.values()) > 0, reads
        assert stats["inline_hits"] > 0 and stats["evaluated"] > 0
        assert stats["applies"] > 0 and stats["invalidations"] > stats["applies"]
        assert stats["stale_delivered"] == 0

    def test_the_first_probe_after_apply_reads_the_write(self, suite, lane_system):
        """No pause holds the lane shut: ``apply()`` runs on the loop, so by
        the time it returns the write has cleared the answer cache and the
        very next probe misses, then answers from the new KB."""
        question, node = _population_questions(suite, lane_system, 1)[0]
        literal = make_literal("4242424")
        reference = _uncached(lane_system)

        def write() -> bool:
            return lane_system.add_fact(node, "population", literal)

        async def main() -> None:
            async with AsyncAnswerer(lane_system) as answerer:
                warm = await answerer.answer(question)
                assert answerer.answer_nowait(question) == warm  # the lane is on
                assert await answerer.apply(write) is True
                assert answerer.answer_nowait(question) is None
                fresh = await answerer.answer(question)
                assert fresh == reference.answer(question)
                assert fresh.values != warm.values
                assert answerer.answer_nowait(question) == fresh

        try:
            asyncio.run(main())
        finally:
            lane_system.delete_fact(node, "population", literal)

    @pytest.mark.parametrize("case", ["cache_off", "no_probe", "custom_key"])
    def test_lane_is_off_where_it_cannot_be_right(self, suite, lane_system, case):
        question, _node = _population_questions(suite, lane_system, 1)[0]
        key = normalized_key
        if case == "cache_off":
            target = _uncached(lane_system)
        elif case == "no_probe":
            target = QueueOnly(lane_system)
        else:
            target, key = lane_system, (lambda text: normalized_key(text))

        async def main() -> dict:
            async with AsyncAnswerer(target, key=key) as answerer:
                for _ in range(3):
                    assert answerer.answer_nowait(question) is None
                    assert (await answerer.answer(question)).answered
                return answerer.snapshot()

        stats = asyncio.run(main())
        assert stats["inline_hits"] == 0
        assert stats["requests"] == stats["evaluated"] == 3


class TestEquivalence:
    def test_lane_result_equals_queue_result_as_dataclasses(self, suite, lane_system):
        """A hit under a second surface form is the queue's result with the
        question echo rewritten — the same thing the queue path delivers for
        that surface form."""
        system = lane_system
        questions = [q for q, _node in _population_questions(suite, system, 4)]
        questions.append("who is the spouse of zorblax the unknowable?")  # unanswered
        system.answerer.clear_caches()

        async def main():
            async with AsyncAnswerer(system) as answerer:
                queued = [await answerer.answer(q) for q in questions]  # cold: all miss
                assert answerer.stats.inline_hits == 0
                lane = [answerer.answer_nowait(q.upper() + " ") for q in questions]
                assert answerer.stats.inline_hits == len(questions)
            async with AsyncAnswerer(QueueOnly(system)) as plain:
                queue_only = [await plain.answer(q.upper() + " ") for q in questions]
                assert plain.stats.inline_hits == 0
            return queued, lane, queue_only

        queued, lane, queue_only = asyncio.run(main())
        for question, via_queue, via_lane, via_plain in zip(
            questions, queued, lane, queue_only
        ):
            assert via_queue.question == question
            assert via_lane == replace(via_queue, question=question.upper() + " ")
            assert via_lane == via_plain == system.answer(question.upper() + " ")


class TestConservation:
    def test_every_request_is_a_hit_a_joiner_or_a_queued_evaluation(
        self, suite, lane_system
    ):
        system = lane_system
        questions = [q for q, _node in _population_questions(suite, system, 5)]
        system.answerer.clear_caches()

        async def main():
            async with KBQAServer(system, ServeConfig(max_batch=4)) as server:
                # five cold duplicates: one queued evaluation, four joiners
                await asyncio.gather(
                    *(server.answerer.answer(questions[0]) for _ in range(5))
                )
                for question in questions:  # four misses, then hits
                    for _ in range(3):
                        status, _payload = await _post_answer(server.port, question)
                        assert status == 200
                # a tagged tenant's hit is a completed request of that tenant
                assert server.answerer.answer_nowait(questions[0], "tenant-a")
                _status, stats = await _get(server.port, "/stats")
                _status, metrics = await _get(server.port, "/metrics")
                return json.loads(stats), metrics.decode("utf-8")

        stats, metrics_text = asyncio.run(main())
        serve = stats["serve"]
        queued = stats["metrics"]["stages"]["queue_wait"]["count"]
        assert serve["requests"] == 5 + 15 + 1
        assert (serve["coalesced"], queued) == (4, 5)
        assert serve["inline_hits"] == 12
        assert serve["requests"] == serve["inline_hits"] + serve["coalesced"] + queued
        assert stats["metrics"]["stages"]["total"]["count"] == serve["requests"] - 4
        assert stats["metrics"]["tenants"]["tenant-a"] == {"requests": 1, "completed": 1}
        events = {
            labels["event"]: value
            for labels, value in parse_prometheus_text(metrics_text)[
                "kbqa_serve_events_total"
            ]
        }
        assert events["inline_hits"] == 12


class TestBatchAdmission:
    def test_a_cached_batch_needs_no_evaluation_slot(self, suite, lane_system):
        """Eight cached questions fit a box with four slots: nothing is
        evaluated, so nothing is refused or served degraded."""
        system = lane_system
        questions = [q for q, _node in _population_questions(suite, system, 8)]
        expected = [system.answer(q) for q in questions]  # and warms the cache

        async def main():
            async with KBQAServer(system, ServeConfig(max_pending=4)) as server:
                results = await server.answerer.answer_many(questions)
                status, body = await _post(server.port, "/batch", {"questions": questions})
                return results, status, body, server.answerer.snapshot()

        results, status, body, serve = asyncio.run(main())
        assert results == expected
        assert status == 200
        assert [r["value"] for r in body["results"]] == [r.value for r in expected]
        assert not any(r["degraded"] for r in body["results"])
        assert (serve["rejected"], serve["degraded"], serve["evaluated"]) == (0, 0, 0)
        assert serve["requests"] == serve["inline_hits"] == 16

    def test_misses_beyond_capacity_still_reject_the_whole_batch(
        self, suite, lane_system
    ):
        """4 hits + 5 misses at four slots: refused before any of it is
        answered or enqueued."""
        system = lane_system
        hits = [q for q, _node in _population_questions(suite, system, 4)]
        misses = [f"what is the population of admission nowhere {n}?" for n in range(5)]

        async def main():
            async with AsyncAnswerer(system, ServeConfig(max_pending=4)) as answerer:
                with pytest.raises(OverloadedError, match="needs 5 evaluations"):
                    await answerer.answer_many(hits + misses)
                return answerer.snapshot()

        serve = asyncio.run(main())
        assert serve["rejected"] == 9
        assert (serve["requests"], serve["inline_hits"], serve["pending"]) == (0, 0, 0)
        assert all(system.cached_answer(q) is None for q in misses)

    def test_a_mixed_batch_keeps_order_echo_and_conservation(self, suite, lane_system):
        system = lane_system
        rng = random.Random(17)
        hits = [q for q, _node in _population_questions(suite, system, 3)]
        misses = [f"what is the population of admission elsewhere {n}?" for n in range(3)]
        batch = [_surface(q, rng) for pair in zip(hits, misses) for q in pair]
        batch.append(misses[0].upper())  # joins the in-flight evaluation of misses[0]

        async def main():
            async with AsyncAnswerer(system, ServeConfig(max_pending=3)) as answerer:
                results = await answerer.answer_many(batch)
                return results, answerer.snapshot(), answerer.metrics.snapshot()

        results, serve, metrics = asyncio.run(main())
        assert results == [system.answer(q) for q in batch]
        assert [r.question for r in results] == batch
        queued = metrics["stages"]["queue_wait"]["count"]
        assert (serve["inline_hits"], serve["coalesced"], queued) == (3, 1, 3)
        assert serve["requests"] == len(batch) == 7
        assert serve["rejected"] == 0
