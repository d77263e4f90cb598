"""HTTP front smoke: routes, live /facts updates, concurrency, shutdown.

Runs a real :class:`KBQAServer` on an ephemeral port (via
:class:`BackgroundServer`) over a **private** trained system — /facts
mutates the KB, so the session-scoped fixtures stay untouched.  Clients are
plain ``http.client``/``urllib`` calls from the test thread (and a thread
pool for the concurrency case), exactly what CI's smoke step exercises.
"""

import http.client
import json
import multiprocessing
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.kb.triple import make_literal
from repro.serve import (
    BackgroundServer,
    MultiProcessServer,
    OverloadedError,
    ServeConfig,
    multiproc_available,
    run_smoke,
)
from repro.serve.app import KBQAServer
from repro.serve.http import HTTPRequest


@pytest.fixture(scope="module")
def serve_system(suite) -> KBQA:
    """A trained system over a private KB copy (safe to mutate via /facts)."""
    kb = compile_freebase_like(suite.world)
    return KBQA.train(kb, suite.corpus, suite.conceptualizer)


@pytest.fixture(scope="module")
def server(serve_system):
    config = ServeConfig(workers=2, max_batch=8)
    with BackgroundServer(serve_system, config) as background:
        yield background


def _post(url: str, payload: dict) -> tuple[int, dict]:
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _answerable_question(suite, system) -> str:
    for entity in suite.world.of_type("city"):
        question = f"what is the population of {entity.name}?"
        if system.answer(question).answered:
            return question
    raise AssertionError("no answerable city question in the suite")


class TestRoutes:
    def test_healthz(self, server):
        status, payload = _get(server.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_answer_matches_synchronous_path(self, server, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        expected = serve_system.answer(question)
        status, payload = _post(server.url + "/answer", {"question": question})
        assert status == 200
        assert payload["answered"] is True
        assert payload["value"] == expected.value
        assert payload["values"] == list(expected.values)
        assert payload["question"] == question

    def test_unknown_entity_is_200_with_no_answer(self, server):
        status, payload = _post(
            server.url + "/answer",
            {"question": "who is the spouse of zorblax the unknowable?"},
        )
        assert status == 200
        assert payload["answered"] is False
        assert payload["value"] is None

    def test_batch_preserves_order_with_duplicates(self, server, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        questions = [question, "gibberish about nothing?", question]
        status, payload = _post(server.url + "/batch", {"questions": questions})
        assert status == 200
        results = payload["results"]
        assert [r["question"] for r in results] == questions
        assert results[0]["value"] == results[2]["value"]
        assert results[1]["answered"] is False

    def test_stats_shape(self, server):
        status, payload = _get(server.url + "/stats")
        assert status == 200
        assert {"serve", "caches", "kb"} <= payload.keys()
        assert payload["serve"]["running"] is True
        assert payload["kb"]["triples"] > 0

    def test_error_paths_are_deterministic(self, server):
        status, payload = _post(server.url + "/answer", {"nope": 1})
        assert (status, "question" in payload["error"]) == (400, True)
        status, _ = _post(server.url + "/batch", {"questions": []})
        assert status == 400
        status, payload = _get(server.url + "/nowhere")
        assert status == 404
        status, payload = _get(server.url + "/answer")  # GET on a POST route
        assert status == 405

    def test_malformed_json_is_400(self, server):
        connection = http.client.HTTPConnection(
            server.server.host, server.server.port, timeout=30
        )
        connection.request(
            "POST", "/answer", body=b"{not json",
            headers={"Content-Type": "application/json", "Content-Length": "9"},
        )
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    def test_keep_alive_serves_multiple_requests_per_connection(self, server):
        connection = http.client.HTTPConnection(
            server.server.host, server.server.port, timeout=30
        )
        for _ in range(3):
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        connection.close()


class TestConnectionHardening:
    """Hostile and broken clients at the socket level: garbage bytes,
    truncated requests, mid-request hangups.  The server answers 400 where
    a reply is still possible, never leaks a traceback out of a connection
    task, stays healthy for the next client, and counts what it saw."""

    def _raw(self, server, payload: bytes, *, shutdown: bool = False) -> bytes:
        with socket.create_connection(
            (server.server.host, server.server.port), timeout=30
        ) as sock:
            sock.sendall(payload)
            if shutdown:
                sock.shutdown(socket.SHUT_WR)  # half-close: reply still readable
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            return b"".join(chunks)

    def test_garbage_request_line_gets_400_and_close(self, server):
        data = self._raw(server, b"\x00\xff TOTAL GARBAGE\r\n\r\n")
        assert data.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in data.lower()
        assert _get(server.url + "/healthz")[0] == 200

    def test_truncated_body_gets_400_not_a_hang(self, server):
        data = self._raw(
            server,
            b"POST /answer HTTP/1.1\r\nContent-Length: 100\r\n\r\n" b'{"question',
            shutdown=True,
        )
        assert data.startswith(b"HTTP/1.1 400 ")
        assert _get(server.url + "/healthz")[0] == 200

    def test_truncated_headers_get_400_not_a_hang(self, server):
        data = self._raw(server, b"POST /answer HTTP/1.1\r\nContent-", shutdown=True)
        assert data.startswith(b"HTTP/1.1 400 ")
        assert _get(server.url + "/healthz")[0] == 200

    def test_disconnect_mid_request_leaves_server_healthy(self, server):
        sock = socket.create_connection(
            (server.server.host, server.server.port), timeout=30
        )
        sock.sendall(b"POST /answer HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
        sock.close()  # hang up while the server awaits the promised body
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if _get(server.url + "/healthz")[0] == 200:
                break
            time.sleep(0.05)
        assert _get(server.url + "/healthz")[0] == 200

    def test_stats_expose_http_error_counters(self, server):
        self._raw(server, b"NOT EVEN HTTP\r\n\r\n")
        status, payload = _get(server.url + "/stats")
        assert status == 200
        assert payload["http"]["bad_requests"] >= 1
        assert payload["http"]["disconnects"] >= 0


class TestLiveFacts:
    def test_add_then_delete_fact_flows_into_answers(self, server, serve_system, suite):
        """The /facts write path: quiesced add -> new answer -> quiesced
        delete -> old answer, with no retraining and no restart."""
        entity = next(e for e in suite.world.of_type("city"))
        question = f"what is the population of {entity.name}?"
        before = _post(server.url + "/answer", {"question": question})[1]
        assert before["answered"] is True

        node = before["entity"]
        fact = {"subject": node, "predicate": "population", "object": make_literal("123456")}
        status, payload = _post(server.url + "/facts", {"op": "add", **fact})
        assert (status, payload["changed"]) == (200, True)
        try:
            after = _post(server.url + "/answer", {"question": question})[1]
            assert "123456" in after["values"]
        finally:
            status, payload = _post(server.url + "/facts", {"op": "delete", **fact})
        assert (status, payload["changed"]) == (200, True)
        restored = _post(server.url + "/answer", {"question": question})[1]
        assert restored["values"] == before["values"]

    def test_facts_validation(self, server):
        status, payload = _post(server.url + "/facts", {"op": "upsert"})
        assert status == 400 and "op" in payload["error"]
        status, payload = _post(
            server.url + "/facts", {"op": "add", "subject": "s", "predicate": "p"}
        )
        assert status == 400 and "object" in payload["error"]


class TestConcurrency:
    def test_concurrent_identical_requests_agree(self, server, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        outcomes: list[tuple[int, dict]] = []
        lock = threading.Lock()

        def client():
            result = _post(server.url + "/answer", {"question": question})
            with lock:
                outcomes.append(result)

        workers = [threading.Thread(target=client) for _ in range(12)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert len(outcomes) == 12
        assert all(status == 200 for status, _ in outcomes)
        bodies = {json.dumps(payload, sort_keys=True) for _, payload in outcomes}
        assert len(bodies) == 1  # identical answers for identical questions

    def test_overload_maps_to_503_with_documented_body(self, serve_system):
        """The route layer's contract for admission rejection, independent
        of timing: a rejecting answerer yields exactly the documented 503."""
        import asyncio

        server = KBQAServer(serve_system, ServeConfig(max_pending=7))

        async def main():
            async def rejecting(_question, **_kwargs):
                raise OverloadedError("serving queue full (7 pending evaluations)")

            server.answerer.answer = rejecting
            request = HTTPRequest(
                method="POST", path="/answer",
                body=json.dumps({"question": "anything?"}).encode(),
            )
            return await server._route(request)

        status, payload = asyncio.run(main())
        assert status == 503
        assert payload == {"error": "overloaded", "max_pending": 7}


needs_multiproc = pytest.mark.skipif(
    not multiproc_available(),
    reason="multi-process serving needs SO_REUSEPORT + fork (POSIX)",
)


@needs_multiproc
class TestMultiProcess:
    """The SO_REUSEPORT front: N forked replicas answer like one process,
    replicate writes, and shut down without leaking a single child."""

    def test_n_process_answers_match_single_process(self, serve_system, suite):
        """Acceptance: identical answer payloads from a 2-process front,
        the 1-process server, and the synchronous path — across enough
        fresh connections for the kernel to spread load over replicas."""
        questions = [q.question for q in suite.benchmark("qald3").bfqs()][:6]
        sync_payloads = []
        with BackgroundServer(serve_system, ServeConfig(workers=2)) as single:
            for question in questions:
                status, payload = _post(single.url + "/answer", {"question": question})
                assert status == 200
                sync_payloads.append(payload)
        with MultiProcessServer(serve_system, ServeConfig(workers=2), procs=2) as front:
            for round_index in range(3):  # fresh connections spread across replicas
                for question, reference in zip(questions, sync_payloads):
                    status, payload = _post(
                        front.url + "/answer", {"question": question}
                    )
                    assert status == 200
                    assert payload == reference, (
                        f"replica answer diverged on {question!r} "
                        f"(round {round_index})"
                    )

    def test_cross_process_invalidation_after_facts_apply(self, serve_system, suite):
        """A /facts write served by one replica must become visible on all
        replicas (shared epoch counter + op-log replay), and the delete
        must restore the original answer everywhere."""
        entity = next(e for e in suite.world.of_type("city"))
        question = f"what is the population of {entity.name}?"
        procs = 3

        def until_streak(url, predicate, what, streak_target=2 * procs):
            deadline = time.monotonic() + 30
            streak = 0
            while streak < streak_target:
                assert time.monotonic() < deadline, f"{what} never converged"
                status, payload = _post(url + "/answer", {"question": question})
                assert status == 200
                streak = streak + 1 if predicate(payload) else 0
                time.sleep(0.01)
            return payload

        with MultiProcessServer(
            serve_system, ServeConfig(workers=2), procs=procs
        ) as front:
            before = _post(front.url + "/answer", {"question": question})[1]
            assert before["answered"] is True
            fact = {
                "subject": before["entity"],
                "predicate": "population",
                "object": make_literal("31337"),
            }
            status, payload = _post(front.url + "/facts", {"op": "add", **fact})
            assert (status, payload["changed"]) == (200, True)
            until_streak(
                front.url, lambda p: "31337" in p["values"], "the added fact"
            )
            status, payload = _post(front.url + "/facts", {"op": "delete", **fact})
            assert (status, payload["changed"]) == (200, True)
            restored = until_streak(
                front.url,
                lambda p: "31337" not in p["values"],
                "the delete",
            )
            assert restored["values"] == before["values"]

    def test_clean_shutdown_leaves_no_children(self, serve_system):
        baseline = {c.pid for c in multiprocessing.active_children()}
        with MultiProcessServer(serve_system, ServeConfig(workers=2), procs=2) as front:
            assert _get(front.url + "/healthz")[0] == 200
            during = multiprocessing.active_children()
            assert len(during) >= 2  # the replicas are real processes
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leftover = {
                c.pid for c in multiprocessing.active_children()
            } - baseline
            if not leftover:
                break
            time.sleep(0.02)
        assert {c.pid for c in multiprocessing.active_children()} - baseline == set()

    def test_run_smoke_multiproc(self, serve_system, suite):
        """The CI --procs 2 smoke body: concurrent clients against the
        forked front, asserted responses, all replicas exited."""
        questions = [q.question for q in suite.benchmark("qald3").bfqs()][:6]
        summary = run_smoke(
            serve_system, questions, threads=4, requests_per_thread=3, procs=2
        )
        assert summary["clean_shutdown"] is True
        assert summary["procs"] == 2
        assert summary["http_200"] == summary["requests"] == 12
        assert summary["respawned"] == 0  # no fault armed, no replica replaced

    def test_procs_validation(self, serve_system):
        with pytest.raises(ValueError, match="procs"):
            MultiProcessServer(serve_system, procs=0)


class TestShutdownAndSmoke:
    def test_background_server_shuts_down_cleanly(self, serve_system):
        with BackgroundServer(serve_system) as background:
            assert _get(background.url + "/healthz")[0] == 200
            thread = background._thread
        assert thread is not None and not thread.is_alive()

    def test_run_smoke_end_to_end(self, serve_system, suite):
        """The CI smoke body: concurrent clients, asserted responses,
        clean shutdown — identical to `kbqa serve --smoke`."""
        questions = [q.question for q in suite.benchmark("qald3").bfqs()][:6]
        summary = run_smoke(
            serve_system, questions, threads=4, requests_per_thread=3
        )
        assert summary["clean_shutdown"] is True
        assert summary["http_200"] == summary["requests"] == 12


class TestMetricsEndpoint:
    """The /metrics Prometheus exposition and the tenant header plumbing."""

    def test_metrics_parses_and_reflects_traffic(self, server, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        _post(server.url + "/answer", {"question": question})
        with urllib.request.urlopen(server.url + "/metrics", timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        from repro.serve.metrics import parse_prometheus_text

        series = parse_prometheus_text(text)  # raises on malformed output
        assert "kbqa_stage_latency_ms_bucket" in series
        assert "kbqa_serve_events_total" in series
        assert series["kbqa_max_pending"] == [({}, 256)]
        stage_counts = {
            labels["stage"]: value
            for labels, value in series["kbqa_stage_latency_ms_count"]
        }
        assert stage_counts["total"] >= 1  # the request above was measured
        events = {
            labels["event"]: value
            for labels, value in series["kbqa_serve_events_total"]
        }
        assert events["requests"] >= 1

    def test_metrics_rejects_post(self, server):
        status, _payload = _post(server.url + "/metrics", {})
        assert status == 405

    def test_tenant_header_feeds_per_tenant_counters(self, server, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        data = json.dumps({"question": question}).encode("utf-8")
        request = urllib.request.Request(
            server.url + "/answer",
            data=data,
            headers={
                "Content-Type": "application/json",
                "X-KBQA-Client": "tenant-a",
            },
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
        status, stats = _get(server.url + "/stats")
        assert status == 200
        tenant = stats["metrics"]["tenants"]["tenant-a"]
        assert tenant["requests"] >= 1
        assert tenant["completed"] + tenant.get("coalesced", 0) >= 1

    def test_distinct_client_headers_are_bounded(self, serve_system, suite):
        """1 000 distinct ``X-KBQA-Client`` values leave at most
        ``MAX_TENANTS`` + 1 tenant entries, and ``/metrics`` still parses."""
        from repro.serve.metrics import MAX_TENANTS, OVERFLOW_TENANT, parse_prometheus_text

        body = json.dumps({"question": _answerable_question(suite, serve_system)})
        with BackgroundServer(serve_system) as background:
            connection = http.client.HTTPConnection(
                "127.0.0.1", background.server.port, timeout=30
            )
            try:
                for n in range(1000):
                    connection.request(
                        "POST", "/answer", body=body, headers={"X-KBQA-Client": f"c{n}"}
                    )
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200
            finally:
                connection.close()
            _status, stats = _get(background.url + "/stats")
            with urllib.request.urlopen(background.url + "/metrics", timeout=30) as resp:
                series = parse_prometheus_text(resp.read().decode("utf-8"))
        tenants = stats["metrics"]["tenants"]
        assert len(tenants) == MAX_TENANTS + 1
        assert tenants["c0"]["requests"] == 1  # the first labels keep their own
        assert tenants[OVERFLOW_TENANT]["requests"] == 1000 - MAX_TENANTS
        labels = {labels["tenant"] for labels, _ in series["kbqa_tenant_events_total"]}
        assert labels == set(tenants)


@needs_multiproc
class TestMultiProcessMetrics:
    def test_scrape_merges_all_replicas(self, serve_system, suite):
        """Any replica serving /metrics must fold in its siblings' dumped
        state: kbqa_replicas_reporting reaches the replica count and the
        merged request counter covers traffic served by *both* processes.
        The question is cached before the fork, so each replica answers it
        in the cache-hit lane and the merged ``inline_hits`` event covers
        every post too."""
        from repro.serve.metrics import parse_prometheus_text

        question = _answerable_question(suite, serve_system)
        posts = 8
        with MultiProcessServer(serve_system, procs=2) as front:
            for _ in range(posts):
                status, _payload = _post(front.url + "/answer", {"question": question})
                assert status == 200
            deadline = time.time() + 15.0
            reporting = requests_seen = inline_hits = 0
            while time.time() < deadline:
                with urllib.request.urlopen(front.url + "/metrics", timeout=30) as resp:
                    series = parse_prometheus_text(resp.read().decode("utf-8"))
                reporting = series["kbqa_replicas_reporting"][0][1]
                events = {
                    labels["event"]: value
                    for labels, value in series.get("kbqa_serve_events_total", [])
                }
                requests_seen = events.get("requests", 0)
                inline_hits = events.get("inline_hits", 0)
                if reporting == 2 and min(requests_seen, inline_hits) >= posts:
                    break
                time.sleep(0.05)
        assert reporting == 2
        assert requests_seen >= posts
        assert inline_hits >= posts

    def test_stats_reports_replica_merge(self, serve_system, suite):
        question = _answerable_question(suite, serve_system)
        with MultiProcessServer(serve_system, procs=2) as front:
            _post(front.url + "/answer", {"question": question})
            deadline = time.time() + 15.0
            reporting = 0
            while time.time() < deadline:
                status, stats = _get(front.url + "/stats")
                assert status == 200
                reporting = stats["replicas"]["reporting"]
                if reporting == 2:
                    break
                time.sleep(0.05)
        assert reporting == 2
