"""Chaos suite: crash-safety contracts under injected faults.

The serving failure model, exercised end to end through the
`repro.serve.faults` harness (``KBQA_FAULTS``):

* a SIGKILL'd ``--procs`` **replica** is reaped by the parent supervisor
  and replaced by a freshly forked child that catches up from the op log
  *before* binding its socket;
* requests carry **deadlines** (``DeadlineExceeded`` / HTTP 504) and the
  HTTP front serves **degraded** answer-cache hits instead of 503s when
  the evaluation backend is saturated.

Real kills, real forks, real sockets — the only scripted parts are the
fault points themselves, which fire deterministically (``times``/``after``
per process, ``once=<token file>`` across processes).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.core.online import AnswerResult
from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.kb.triple import make_literal
from repro.serve import (
    AsyncAnswerer,
    DeadlineExceeded,
    MultiProcessServer,
    OverloadedError,
    ServeConfig,
    multiproc_available,
    run_smoke,
)
from repro.serve.app import KBQAServer
from repro.serve.faults import (
    FAULTS_ENV,
    fault_point,
    faults_active,
    inject_faults,
    parse_faults,
)
from repro.serve.http import HTTPRequest

TIMEOUT_S = 60.0

needs_multiproc = pytest.mark.skipif(
    not multiproc_available(),
    reason="needs SO_REUSEPORT + fork (POSIX multi-process serving)",
)


def _assert_no_children() -> None:
    """Children unregister as they are reaped; poll briefly, then assert."""
    for _ in range(300):
        if not multiprocessing.active_children():
            break
        time.sleep(0.02)
    assert multiprocessing.active_children() == []


def _wait_until(predicate, timeout_s: float = TIMEOUT_S) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not met before timeout"
        time.sleep(0.02)


# -- Scripted targets --------------------------------------------------------


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


class SlowTarget:
    """Every batch takes ``delay_s`` — the deadline tests' stalled backend."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def answer_many(self, questions):
        time.sleep(self.delay_s)
        return [_result(q, "slow") for q in questions]


# -- Fault-spec harness ------------------------------------------------------


class TestFaultSpecs:
    def test_parse_full_grammar(self, tmp_path):
        token = str(tmp_path / "tok")
        faults = parse_faults(
            f"t.kill=kill,once={token};"
            "serve.replica=sleep:25,times=3,after=2;"
            "t.raise=raise:OSError"
        )
        assert faults["t.kill"].action == "kill"
        assert faults["t.kill"].once == token
        assert faults["serve.replica"].action == "sleep"
        assert faults["serve.replica"].arg == "25"
        assert faults["serve.replica"].times == 3
        assert faults["serve.replica"].after == 2
        assert faults["t.raise"].arg == "OSError"

    @pytest.mark.parametrize(
        "spec",
        [
            "no-equals-sign",
            "site=explode",
            "site=kill,bogus=1",
            "site=raise:NoSuchError",
            "site=sleep:abc",
            "site=exit:xyz",
        ],
    )
    def test_malformed_specs_fail_loudly(self, spec):
        with pytest.raises(ValueError):
            parse_faults(spec)

    def test_unarmed_fault_point_is_a_no_op(self):
        assert not faults_active()
        fault_point("anything.at.all")  # must not raise

    def test_raise_action_with_after_and_times(self):
        with inject_faults("t.site=raise:RuntimeError,after=2,times=2"):
            assert faults_active()
            fault_point("t.site")  # hit 1: skipped (after)
            fault_point("t.site")  # hit 2: skipped (after)
            with pytest.raises(RuntimeError, match="injected fault"):
                fault_point("t.site")  # hit 3: fire 1
            with pytest.raises(RuntimeError):
                fault_point("t.site")  # hit 4: fire 2
            fault_point("t.site")  # hit 5: budget exhausted
        assert not faults_active()

    def test_once_token_fires_exactly_once(self, tmp_path):
        token = str(tmp_path / "one.tok")
        with inject_faults(f"t.once=raise,once={token}"):
            with pytest.raises(RuntimeError):
                fault_point("t.once")
            fault_point("t.once")  # token already claimed
        assert os.path.exists(token)

    def test_invalid_spec_rejected_before_arming(self):
        with pytest.raises(ValueError):
            inject_faults("site=explode")
        assert os.environ.get(FAULTS_ENV) is None

    def test_env_restored_on_exit(self):
        with inject_faults("a=sleep:1"):
            assert os.environ[FAULTS_ENV] == "a=sleep:1"
            with inject_faults("b=sleep:1"):
                assert os.environ[FAULTS_ENV] == "b=sleep:1"
            assert os.environ[FAULTS_ENV] == "a=sleep:1"
        assert os.environ.get(FAULTS_ENV) is None


# -- Serving: deadlines ------------------------------------------------------


class TestServingCrashRetry:
    def test_deadline_expires_with_stalled_backend(self):
        """A stalled evaluation must not hold the caller past its deadline;
        the evaluation itself is not cancelled and resolves later."""
        config = ServeConfig(executor="thread", workers=1)

        async def main():
            async with AsyncAnswerer(SlowTarget(0.4), config) as answerer:
                start = time.perf_counter()
                with pytest.raises(DeadlineExceeded):
                    await answerer.answer("too slow?", deadline_s=0.05)
                waited = time.perf_counter() - start
                # un-deadlined request on the same answerer still completes
                result = await answerer.answer("patient question?")
                return waited, result, dict(answerer.snapshot())

        waited, result, snapshot = asyncio.run(main())
        assert waited < 0.35  # gave up well before the 0.4s evaluation
        assert result.value == "slow"
        assert snapshot["deadline_expired"] == 1

    def test_config_default_deadline_applies(self):
        config = ServeConfig(executor="thread", workers=1, deadline_ms=40.0)

        async def main():
            async with AsyncAnswerer(SlowTarget(0.4), config) as answerer:
                with pytest.raises(DeadlineExceeded):
                    await answerer.answer("slow by default?")
                return dict(answerer.snapshot())

        snapshot = asyncio.run(main())
        assert snapshot["deadline_expired"] == 1


# -- HTTP lifecycle: 504 + degraded mode -------------------------------------


@pytest.fixture(scope="module")
def serve_system(suite) -> KBQA:
    """A trained system over a private KB copy (safe to mutate/fork)."""
    kb = compile_freebase_like(suite.world)
    return KBQA.train(kb, suite.corpus, suite.conceptualizer)


def _answerable_question(suite, system) -> str:
    for entity in suite.world.of_type("city"):
        question = f"what is the population of {entity.name}?"
        if system.answer(question).answered:
            return question
    raise AssertionError("no answerable city question in the suite")


def _route(server, method: str, path: str, body: dict | None = None, headers=None):
    request = HTTPRequest(
        method=method,
        path=path,
        headers=headers or {},
        body=json.dumps(body).encode() if body is not None else b"",
    )
    return asyncio.run(server._route(request))


class TestHTTPDeadlines:
    def test_deadline_exceeded_maps_to_504(self, serve_system):
        server = KBQAServer(serve_system, ServeConfig())

        async def expiring(_question, **_kwargs):
            raise DeadlineExceeded("deadline of 5 ms expired")

        server.answerer.answer = expiring
        status, payload = _route(
            server,
            "POST",
            "/answer",
            {"question": "anything?"},
            headers={"x-kbqa-deadline-ms": "5"},
        )
        assert status == 504
        assert payload["error"] == "deadline exceeded"

    # float() accepts "nan" and "inf", and nan <= 0 is false: both were
    # once served with no deadline at all
    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "nan", "inf"])
    def test_invalid_deadline_header_is_400(self, serve_system, raw):
        server = KBQAServer(serve_system, ServeConfig())
        status, payload = _route(
            server,
            "POST",
            "/answer",
            {"question": "anything?"},
            headers={"x-kbqa-deadline-ms": raw},
        )
        assert status == 400
        assert "deadline" in payload["error"].lower()

    def test_real_stall_times_out_through_the_route(self, serve_system):
        """End to end on the event loop: a stalled backend + header deadline
        produce a 504 from the route layer."""
        config = ServeConfig(executor="thread", workers=1)
        server = KBQAServer(SlowTargetSystem(), config)

        async def main():
            await server.answerer.start()
            try:
                request = HTTPRequest(
                    method="POST",
                    path="/answer",
                    headers={"x-kbqa-deadline-ms": "40"},
                    body=json.dumps({"question": "too slow?"}).encode(),
                )
                return await server._route(request)
            finally:
                await server.answerer.stop()

        status, payload = asyncio.run(main())
        assert status == 504
        assert payload["error"] == "deadline exceeded"


class SlowTargetSystem:
    """Just enough KBQA surface for KBQAServer with a stalled answerer."""

    def __init__(self) -> None:
        self.answerer = SlowTarget(0.5)

    def answer_many(self, questions):
        return self.answerer.answer_many(questions)


class _Probeless:
    """``system`` as a target the cache-hit lane cannot read: same KB, same
    answerer, no ``cached_answer`` on the target itself."""

    cached_answer = None

    def __init__(self, system) -> None:
        self.kb, self.answerer = system.kb, system.answerer
        self.answer_many = system.answer_many


def _routed(server, question: str, during=None):
    """Route one ``POST /answer`` through a started answerer whose admission
    slots are all taken — every request that reaches admission is refused."""

    async def main():
        await server.answerer.start()
        try:
            server.answerer._pending = server.answerer.config.max_pending  # full
            request = HTTPRequest(
                method="POST",
                path="/answer",
                body=json.dumps({"question": question}).encode(),
            )
            if during is None:
                return await server._route(request)
            return await during(server, request)
        finally:
            await server.answerer.stop()

    return asyncio.run(main())


class TestDegradedMode:
    """Under overload a cached question is an ordinary cache-hit-lane answer:
    it never reaches admission, so there is nothing to degrade.  Degraded
    mode is what is left for the refusals the lane could not absorb."""

    def test_cached_answer_is_a_lane_hit_that_overload_cannot_refuse(
        self, serve_system, suite
    ):
        question = _answerable_question(suite, serve_system)
        expected = serve_system.answer(question)  # warms the answer cache
        server = KBQAServer(serve_system, ServeConfig())
        status, payload = _routed(server, question)
        assert status == 200
        assert payload["degraded"] is False
        assert payload["value"] == expected.value
        stats = server.answerer.stats
        assert (stats.inline_hits, stats.rejected, stats.degraded) == (1, 0, 0)

    def test_cached_answer_served_degraded_while_a_write_shuts_the_lane(
        self, serve_system, suite
    ):
        import threading

        question = _answerable_question(suite, serve_system)
        expected = serve_system.answer(question)
        server = KBQAServer(serve_system, ServeConfig())
        entered, release = threading.Event(), threading.Event()

        def write() -> None:
            entered.set()
            assert release.wait(TIMEOUT_S)

        async def during_a_write(server, request):
            loop = asyncio.get_running_loop()
            writer = asyncio.ensure_future(server.answerer.apply(write))
            assert await loop.run_in_executor(None, entered.wait, TIMEOUT_S)
            try:
                return await server._route(request)
            finally:
                release.set()
                await writer

        status, payload = _routed(server, question, during_a_write)
        assert status == 200
        assert payload["degraded"] is True
        assert payload["value"] == expected.value
        stats = server.answerer.stats
        assert (stats.inline_hits, stats.rejected, stats.degraded) == (0, 1, 1)

    def test_cached_answer_served_degraded_when_the_lane_cannot_read_the_cache(
        self, serve_system, suite
    ):
        question = _answerable_question(suite, serve_system)
        expected = serve_system.answer(question)
        server = KBQAServer(_Probeless(serve_system), ServeConfig())
        status, payload = _routed(server, question)
        assert status == 200
        assert payload["degraded"] is True
        assert payload["value"] == expected.value
        stats = server.answerer.stats
        assert (stats.inline_hits, stats.rejected, stats.degraded) == (0, 1, 1)

    def test_uncached_question_still_gets_the_503(self, serve_system):
        server = KBQAServer(serve_system, ServeConfig(max_pending=7))

        async def rejecting(_question, **_kwargs):
            raise OverloadedError("serving queue full (7 pending evaluations)")

        server.answerer.answer = rejecting
        status, payload = _route(
            server,
            "POST",
            "/answer",
            {"question": "definitely never cached before zorp?"},
        )
        assert status == 503
        assert payload == {"error": "overloaded", "max_pending": 7}

    def test_batch_degrades_only_when_fully_cached(self, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        serve_system.answer(question)  # cached
        server = KBQAServer(serve_system, ServeConfig(max_pending=7))

        async def rejecting(_questions, **_kwargs):
            raise OverloadedError("serving queue full (7 pending evaluations)")

        server.answerer.answer_many = rejecting
        status, payload = _route(
            server,
            "POST",
            "/batch",
            {"questions": [question, "never cached zorp?"]},
        )
        assert status == 503
        status, payload = _route(
            server, "POST", "/batch", {"questions": [question, question]}
        )
        assert status == 200
        assert all(r["degraded"] for r in payload["results"])
        assert [r["value"] for r in payload["results"]] == [
            serve_system.answer(question).value
        ] * 2

    def test_fresh_answers_are_not_marked_degraded(self, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        server = KBQAServer(serve_system, ServeConfig())

        async def main():
            await server.answerer.start()
            try:
                request = HTTPRequest(
                    method="POST",
                    path="/answer",
                    body=json.dumps({"question": question}).encode(),
                )
                return await server._route(request)
            finally:
                await server.answerer.stop()

        status, payload = asyncio.run(main())
        assert status == 200
        assert payload["degraded"] is False


# -- Replica self-healing ----------------------------------------------------


def _post(url: str, payload: dict, timeout: float = 30.0) -> tuple[int, dict]:
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _post_with_retry(url: str, payload: dict, attempts: int = 20) -> tuple[int, dict]:
    """Client-side retry over replica-death connection drops: the accepted
    request that finally lands is the one whose answer we assert on."""
    last: Exception | None = None
    for _ in range(attempts):
        try:
            return _post(url, payload, timeout=10.0)
        except (urllib.error.URLError, ConnectionError, OSError) as error:
            last = error
            time.sleep(0.05)
    raise AssertionError(f"request never landed after {attempts} attempts: {last!r}")


@needs_multiproc
class TestReplicaSelfHealing:
    def test_sigkilled_replica_is_replaced_and_caught_up(self, serve_system, suite):
        """Kill one of two replicas mid-load after a /facts write: the
        supervisor forks a replacement that replays the op log before
        binding, so every post-heal answer reflects the write."""
        question = _answerable_question(suite, serve_system)
        config = ServeConfig(workers=2)
        front = MultiProcessServer(
            serve_system, config, procs=2, supervise_interval_s=0.02
        )
        with front:
            # land a write through one replica; both must converge on it
            status, before = _post_with_retry(
                front.url + "/answer", {"question": question}
            )
            assert status == 200 and before["answered"] is True
            status, payload = _post_with_retry(
                front.url + "/facts",
                {"op": "add", "subject": before["entity"],
                 "predicate": "population", "object": make_literal("123456789")},
            )
            assert status == 200 and payload["changed"] is True

            victim = front._children[0]
            os.kill(victim.pid, signal.SIGKILL)
            _wait_until(lambda: front.respawned >= 1)
            _wait_until(lambda: all(c.is_alive() for c in front._children))

            # hammer both replicas: every answer must include the written
            # value — a healed replica serving pre-write state would miss it
            for _ in range(20):
                status, payload = _post_with_retry(
                    front.url + "/answer", {"question": question}
                )
                assert status == 200
                assert "123456789" in payload["values"], (
                    "a replica answered with pre-write state after healing"
                )
        assert front.respawned >= 1
        _assert_no_children()

    def test_smoke_reports_the_replica_an_armed_fault_killed(
        self, serve_system, suite, tmp_path
    ):
        """The CI replica-kill step's body: the smoke lets the front heal,
        gets every answer and says what was replaced, so the step can fail
        when the fault never fired."""
        token = str(tmp_path / "smoke.tok")
        questions = [q.question for q in suite.benchmark("qald3").bfqs()][:6]
        with inject_faults(f"serve.replica=kill,once={token}"):
            summary = run_smoke(
                serve_system, questions, threads=4, requests_per_thread=3, procs=2
            )
        assert summary["http_200"] == summary["requests"] == 12
        assert summary["respawned"] == 1
        assert os.path.exists(token)
        _assert_no_children()

    def test_combined_chaos_worker_and_replica_kill(self, serve_system, suite, tmp_path):
        """The acceptance scenario: two replicas, one SIGKILLs itself
        mid-load at the ``serve.replica`` fault site.  Every accepted
        request must come back correct (or explicitly degraded), capacity
        must recover without a restart, and no child process may outlive
        stop()."""
        question = _answerable_question(suite, serve_system)
        expected = serve_system.answer(question)
        replica_tok = str(tmp_path / "replica.tok")
        config = ServeConfig(workers=2)
        with inject_faults(f"serve.replica=kill,once={replica_tok},after=10"):
            front = MultiProcessServer(
                serve_system, config, procs=2, supervise_interval_s=0.02
            )
            with front:
                outcomes = []
                for i in range(30):
                    status, payload = _post_with_retry(
                        front.url + "/answer", {"question": question}
                    )
                    outcomes.append(status)
                    assert status == 200, f"request {i} -> {status}: {payload}"
                    assert payload["value"] == expected.value
                    assert payload["degraded"] in (False, True)
                assert len(outcomes) == 30  # no accepted request was lost
                _wait_until(lambda: front.respawned >= 1)
                _wait_until(lambda: all(c.is_alive() for c in front._children))
                assert len(front._children) == 2  # full capacity, no restart
                status, _payload = _post_with_retry(
                    front.url + "/answer", {"question": question}
                )
                assert status == 200
        assert os.path.exists(replica_tok)  # the fault really fired
        _assert_no_children()
