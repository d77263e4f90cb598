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
  a duplicate in a client batch (``coalesced``), a queued evaluation;
* **batch admission** — a client batch is admitted on the evaluations it
  needs, and a question the lane answers needs none;
* **duplicates** — N concurrent cold duplicates, through ``AsyncAnswerer``
  or ``POST /answer``, cost one Eq 7 evaluation with the answer cache on.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.model import TemplateModel
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.kb.triple import make_literal
from repro.serve import AsyncAnswerer, OverloadedError, ServeConfig, normalized_key
from repro.nlp.tokenizer import tokenize
from repro.serve import app as serve_app, http as serve_http
from repro.serve.app import WIRE_MEMO_MAX_BYTES, KBQAServer, result_payload
from repro.serve.http import parse_request, response_bytes

from tests.conftest import pick_entity
from tests.serve_harness import count_evaluations, parse_prometheus_text

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
                assert status == 200 and "degraded" not in payload
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

    @pytest.mark.parametrize("case", ["cache_off", "no_probe"])
    def test_lane_is_off_where_it_cannot_be_right(self, suite, lane_system, case):
        question, _node = _population_questions(suite, lane_system, 1)[0]
        if case == "cache_off":
            target = _uncached(lane_system)
        else:
            target = QueueOnly(lane_system)

        async def main() -> dict:
            async with AsyncAnswerer(target) as answerer:
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
                # five cold duplicates in one client batch: one queued
                # evaluation, four coalesced
                await server.answerer.answer_many([questions[0]] * 5)
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
        # HTTP hits after each body's first render are written from the memo
        assert stats["http"]["wire_hits"] == 6 <= serve["inline_hits"]
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
        assert not any("degraded" in r for r in body["results"])
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
        batch.append(misses[0].upper())  # a duplicate: coalesced into misses[0]'s entry

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


# -- The wire memo: a request's bytes seen before are answered from stored bytes


@pytest.fixture(scope="module", params=["memory", "disk"])
def memo_system(request, suite):
    """A trained system over a private KB copy of each backend."""
    system = KBQA.train(
        compile_freebase_like(suite.world, backend=request.param),
        suite.corpus,
        suite.conceptualizer,
    )
    yield system
    system.close()


def _answer_wire(question: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    body = json.dumps({"question": question}).encode("utf-8")
    lines = [f"POST /answer {version}", *headers, f"Content-Length: {len(body)}"]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


async def _read_reply(reader: asyncio.StreamReader) -> bytes:
    """One whole reply, head and body, off a kept connection."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), TIMEOUT_S)
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    return head + await asyncio.wait_for(reader.readexactly(length), TIMEOUT_S)


async def _raw(port: int, wire: bytes) -> bytes:
    """Every byte the server sends for ``wire`` until it hangs up (the
    client half-closes after sending, so a kept-alive socket closes too)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(wire)
        writer.write_eof()
        return await asyncio.wait_for(reader.read(), TIMEOUT_S)
    finally:
        writer.close()
        await writer.wait_closed()


def _body(reply: bytes) -> dict:
    return json.loads(reply.partition(b"\r\n\r\n")[2])


class TestWireMemo:
    @pytest.mark.parametrize(
        "headers, version, keep_alive",
        [((), "HTTP/1.1", True), (("Connection: close, TE",), "HTTP/1.1", False),
         ((), "HTTP/1.0", False)],
        ids=["keep-alive", "close", "http-1.0"],
    )
    def test_memo_bytes_equal_a_fresh_render(
        self, suite, memo_system, headers, version, keep_alive
    ):
        """A memo-served reply is byte for byte what the long form renders
        for the same request at the same epoch, ``Connection`` included."""
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        wire = _answer_wire(question, *headers, version=version)

        async def main() -> tuple[bytes, bytes, int]:
            async with KBQAServer(system) as server:
                first = await _raw(server.port, wire)  # renders and stores
                before = server.wire_hits
                second = await _raw(server.port, wire)
                return first, second, server.wire_hits - before

        first, second, wire_hits = asyncio.run(main())
        expected = response_bytes(
            200, result_payload(system.answer(question)), keep_alive=keep_alive
        )
        assert wire_hits == 1
        assert second == first == expected

    @pytest.mark.parametrize("refill", [False, True], ids=["miss", "replaced"])
    @pytest.mark.parametrize(
        "op", ["facts", "direct_store_edit", "clear_caches", "replace_model"]
    )
    def test_every_write_path_retires_the_memo(self, suite, memo_system, op, refill):
        """After each write path the next request is answered from the new
        state, never from memo bytes — whether the write left the cache
        without the entry (``miss``) or a library call has already put a new
        entry under the same key (``replaced``: the identity test) — and
        once the new entry is rendered, the memo serves it again."""
        system = memo_system
        question, node = _population_questions(suite, system, 1)[0]
        literal = make_literal("5151515")
        original_model = system.answerer.model
        reference = _uncached(system)
        area_path = system.answer(
            f"what is the area of {pick_entity(suite.world, 'city', 'area').name}?"
        ).predicate
        assert area_path is not None
        area_model = TemplateModel()
        for template in original_model.templates():
            area_model.set_distribution(template, {str(area_path): 1.0}, 1.0)

        async def main() -> tuple[dict, dict, list[int]]:
            async with KBQAServer(system) as server:
                hits = []
                for _ in range(2):
                    _status, stale = await _post_answer(server.port, question)
                    hits.append(server.wire_hits)
                if op == "facts":
                    status, changed = await _post(server.port, "/facts", {
                        "op": "add", "subject": node,
                        "predicate": "population", "object": literal,
                    })
                    assert (status, changed["changed"]) == (200, True)
                elif op == "direct_store_edit":  # the change-stream path
                    loop = asyncio.get_running_loop()
                    assert await loop.run_in_executor(
                        None, system.add_fact, node, "population", literal
                    )
                elif op == "clear_caches":
                    system.answerer.clear_caches()
                else:
                    system.answerer.replace_model(area_model)
                    reference.replace_model(area_model)
                if refill:
                    system.answer(question)
                for _ in range(3 - refill):
                    status, fresh = await _post_answer(server.port, question)
                    assert status == 200
                    hits.append(server.wire_hits)
                return stale, fresh, hits

        try:
            stale, fresh, hits = asyncio.run(main())
            expected = result_payload(reference.answer(question))
        finally:
            system.answerer.replace_model(original_model)
            if op in ("facts", "direct_store_edit"):
                system.delete_fact(node, "population", literal)
        assert fresh == expected
        if op != "clear_caches":
            assert fresh != stale
        # render, memo hit; the write; then (a miss and) a render of the new
        # entry; only the request after that is served from the memo again
        assert [n - hits[0] for n in hits] == ([0, 1, 1, 2] if refill else [0, 1, 1, 1, 2])

    def test_spellings_share_the_memo(self, suite, memo_system):
        """Two spellings of one key are both memo hits, each echoing its own
        question, against the one entry the cache holds."""
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        spellings = [question, "  " + question.upper()]
        assert len({normalized_key(s) for s in spellings}) == 1

        async def main():
            async with KBQAServer(system) as server:
                for spelling in spellings:  # render and store both
                    await _post_answer(server.port, spelling)
                before = server.wire_hits
                replies = [await _post_answer(server.port, s) for s in spellings]
                entries = [memo.entry for memo in server._wire.values()]
                return replies, server.wire_hits - before, entries

        replies, wire_hits, entries = asyncio.run(main())
        assert wire_hits == 2
        assert [payload["question"] for _status, payload in replies] == spellings
        assert replies[0][1] == {**replies[1][1], "question": question}
        assert len(entries) == 2 and entries[0] is entries[1]

    @pytest.mark.parametrize("raw", ["abc", "0", "-5", "inf"])
    def test_bad_deadline_on_a_memo_body_gets_its_400(self, suite, memo_system, raw):
        """A body the memo holds, with a bad deadline header: other bytes, so
        the long form answers each send with its 400, and never stores it."""
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        bad = _answer_wire(question, f"X-KBQA-Deadline-Ms: {raw}")

        async def main():
            async with KBQAServer(system) as server:
                for _ in range(2):
                    await _raw(server.port, _answer_wire(question))
                before = server.wire_hits, len(server._wire), server.invalid_requests
                replies = [await _raw(server.port, bad) for _ in range(2)]
                after = server.wire_hits, len(server._wire), server.invalid_requests
                return replies, before, after, bad in server._wire

        replies, before, after, stored = asyncio.run(main())
        for reply in replies:
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert "deadline" in _body(reply)["error"].lower()
        assert after == (before[0], before[1], before[2] + 2) and before[1] == 1
        assert not stored

    def test_tenants_and_conservation_hold_with_memo_hits(self, suite, memo_system):
        system = memo_system
        questions = [q for q, _node in _population_questions(suite, system, 3)]
        system.answerer.clear_caches()

        async def main():
            async with KBQAServer(system, ServeConfig(max_batch=4)) as server:
                for question in questions:  # a miss, a render, two memo hits
                    for _ in range(4):
                        reply = await _raw(
                            server.port, _answer_wire(question, "X-KBQA-Client: t-memo")
                        )
                        assert reply.startswith(b"HTTP/1.1 200 ")
                _status, stats = await _get(server.port, "/stats")
                return json.loads(stats)

        stats = asyncio.run(main())
        serve, http = stats["serve"], stats["http"]
        queued = stats["metrics"]["stages"]["queue_wait"]["count"]
        assert (serve["requests"], serve["inline_hits"], queued) == (12, 9, 3)
        assert serve["requests"] == serve["inline_hits"] + serve["coalesced"] + queued
        assert http["wire_hits"] == 6 and http["wire_hits"] <= serve["inline_hits"]
        assert http["wire_entries"] == 3
        assert stats["metrics"]["tenants"]["t-memo"] == {"requests": 12, "completed": 12}
        assert stats["metrics"]["stages"]["total"]["count"] == 12

    def test_no_answer_cache_leaves_the_memo_empty(self, suite, memo_system):
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        size = system.answerer.answer_cache_size
        system.answerer.answer_cache_size = 0  # what --no-cache configures
        system.answerer.clear_caches()

        async def main():
            async with KBQAServer(system) as server:
                for _ in range(3):
                    status, payload = await _post_answer(server.port, question)
                    assert status == 200 and payload["answered"]
                _status, stats = await _get(server.port, "/stats")
                return json.loads(stats)

        try:
            stats = asyncio.run(main())
        finally:
            system.answerer.answer_cache_size = size
        assert stats["http"]["wire_entries"] == 0 == stats["http"]["wire_hits"]
        assert stats["serve"]["inline_hits"] == 0

    def test_an_oversized_body_is_answered_but_not_stored(self, suite, memo_system):
        """Padding is not a question: a request past ``WIRE_MEMO_MAX_BYTES``
        takes the long form every time, so padded requests cannot fill the
        memo with megabytes."""
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        body = json.dumps({"question": question, "pad": "x" * WIRE_MEMO_MAX_BYTES})
        wire = (
            f"POST /answer HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n{body}"
        ).encode("utf-8")

        async def main():
            async with KBQAServer(system) as server:
                replies = [await _raw(server.port, wire) for _ in range(3)]
                return replies, server.wire_hits, len(server._wire)

        replies, wire_hits, entries = asyncio.run(main())
        expected = response_bytes(200, result_payload(system.answer(question)))
        assert replies == [expected] * 3
        assert (wire_hits, entries) == (0, 0)

    def test_memo_never_holds_more_than_the_cache_size(self, suite, memo_system):
        system = memo_system
        questions = [q for q, _node in _population_questions(suite, system, 6)]
        size = system.answerer.answer_cache_size
        system.answerer.answer_cache_size = 3
        system.answerer.clear_caches()

        async def main():
            async with KBQAServer(system) as server:
                occupancy = []
                for question in questions + questions[::-1]:
                    for _ in range(2):
                        status, _payload = await _post_answer(server.port, question)
                        assert status == 200
                        occupancy.append(len(server._wire))
                _status, stats = await _get(server.port, "/stats")
                return occupancy, json.loads(stats)["http"]

        try:
            occupancy, http = asyncio.run(main())
        finally:
            system.answerer.answer_cache_size = size
            system.answerer.clear_caches()
        assert max(occupancy) == 3 and http["wire_entries"] <= 3
        assert http["wire_hits"] > 0

    def test_a_memo_hit_parses_decodes_and_tokenizes_nothing(
        self, suite, memo_system, monkeypatch
    ):
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        wire = _answer_wire(question, "X-KBQA-Client: t-spy")
        calls: Counter = Counter()

        def counted(name, function):
            def spy(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return spy

        monkeypatch.setattr(serve_app, "parse_request", counted("parse_request", parse_request))
        monkeypatch.setattr(serve_http, "json", SimpleNamespace(
            loads=counted("json.loads", json.loads), dumps=json.dumps
        ))
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and getattr(module, "tokenize", None) is tokenize:
                monkeypatch.setattr(module, "tokenize", counted("tokenize", tokenize))

        async def main():
            async with KBQAServer(system) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                try:
                    replies, seen = [], []
                    for _ in range(3):  # rendered and stored, then twice from the memo
                        calls.clear()
                        writer.write(wire)
                        replies.append(await _read_reply(reader))
                        seen.append(dict(calls))
                finally:
                    writer.close()
                    await writer.wait_closed()
                return replies, seen, server.wire_hits

        replies, seen, wire_hits = asyncio.run(main())
        assert seen[0].keys() == {"parse_request", "json.loads", "tokenize"}  # the long form
        assert seen[1:] == [{}, {}]
        assert wire_hits == 2 and replies[0] == replies[1] == replies[2]

    def test_a_split_request_is_served_from_the_memo_once_whole(self, suite, memo_system):
        """Half a request is not a memo key: the split send takes the long
        form (and stores nothing); the same bytes sent whole are a hit."""
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        wire = _answer_wire(question)

        async def main():
            async with KBQAServer(system) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                try:
                    writer.write(wire)
                    stored = await _read_reply(reader)
                    counts = [(server.wire_hits, len(server._wire))]
                    writer.write(wire[:40])
                    await writer.drain()
                    await asyncio.sleep(0.05)  # the server reads the first half alone
                    writer.write(wire[40:])
                    split = await _read_reply(reader)
                    counts.append((server.wire_hits, len(server._wire)))
                    writer.write(wire)
                    whole = await _read_reply(reader)
                    counts.append((server.wire_hits, len(server._wire)))
                finally:
                    writer.close()
                    await writer.wait_closed()
                return stored, split, whole, counts

        stored, split, whole, counts = asyncio.run(main())
        assert stored == split == whole
        assert counts == [(0, 1), (0, 1), (1, 1)]

    def test_pipelined_requests_are_answered_in_order(self, suite, memo_system):
        """Two requests in one read: neither is the whole read, so both are
        parsed, answered in order and not stored — even one the memo holds."""
        system = memo_system
        questions = [q for q, _node in _population_questions(suite, system, 2)]
        first, second = (_answer_wire(q) for q in questions)

        async def main():
            async with KBQAServer(system) as server:
                await _raw(server.port, first)  # stored
                reply = await _raw(server.port, first + second)
                return reply, server.wire_hits, list(server._wire)

        reply, wire_hits, keys = asyncio.run(main())
        expected = b"".join(
            response_bytes(200, result_payload(system.answer(q))) for q in questions
        )
        assert reply == expected
        assert (wire_hits, keys) == (0, [first])

    def test_a_second_tenant_gets_its_own_entry_and_counters(self, suite, memo_system):
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        tenants = ["t-one", "t-two"]

        async def main():
            async with KBQAServer(system) as server:
                for tenant in tenants:
                    for _ in range(3):  # rendered and stored, then two memo hits
                        reply = await _raw(
                            server.port, _answer_wire(question, f"X-KBQA-Client: {tenant}")
                        )
                        assert reply.startswith(b"HTTP/1.1 200 ")
                memos = list(server._wire.values())
                return memos, server.wire_hits, server.answerer.metrics.snapshot()

        memos, wire_hits, metrics = asyncio.run(main())
        assert [memo.asked.tenant for memo in memos] == tenants
        assert memos[0].entry is memos[1].entry and memos[0].reply == memos[1].reply
        assert wire_hits == 4
        for tenant in tenants:
            assert metrics["tenants"][tenant] == {"requests": 3, "completed": 3}


# -- Duplicates: no coalescing, still one Eq 7 evaluation per cold key ------------


class TestDuplicates:
    """Every miss is its own queue entry; with the answer cache on a cold
    duplicate costs a queue slot, never a second evaluation — in one
    micro-batch ``answer_many`` deduplicates it, in a later one it is a
    cache hit."""

    N = 8

    @pytest.mark.parametrize("path", ["answer", "answer_many"])
    def test_concurrent_cold_duplicates_cost_one_evaluation(
        self, suite, memo_system, monkeypatch, path
    ):
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        expected = system.answer(question)
        spellings = [_surface(question, random.Random(n)) for n in range(self.N)]
        system.answerer.clear_caches()
        evaluations = count_evaluations(system.answerer, monkeypatch)

        async def main():
            async with AsyncAnswerer(system, ServeConfig(max_batch=4)) as answerer:
                if path == "answer":
                    return await asyncio.gather(*(answerer.answer(q) for q in spellings))
                return await answerer.answer_many(spellings)

        results = asyncio.run(main())
        assert len(evaluations) == 1
        assert results == [replace(expected, question=q) for q in spellings]

    def test_concurrent_cold_http_duplicates_cost_one_evaluation(
        self, suite, memo_system, monkeypatch
    ):
        system = memo_system
        question = _population_questions(suite, system, 1)[0][0]
        expected = system.answer(question)
        system.answerer.clear_caches()
        evaluations = count_evaluations(system.answerer, monkeypatch)

        async def main():
            async with KBQAServer(system, ServeConfig(max_batch=4)) as server:
                return await asyncio.gather(
                    *(_post_answer(server.port, question) for _ in range(self.N))
                )

        replies = asyncio.run(main())
        assert len(evaluations) == 1
        assert [status for status, _payload in replies] == [200] * self.N
        assert all(payload == result_payload(expected) for _status, payload in replies)
