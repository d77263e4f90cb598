"""Test instruments for the serving layer: a serving smoke, a strict
Prometheus text parser and an Eq 7 evaluation spy.

Neither is product code: the server never parses its own exposition, and
nothing in ``kbqa serve`` runs a self-test.  They live here so the tests
that need them share one copy::

    from tests.serve_harness import count_evaluations, parse_prometheus_text, run_smoke

* :func:`run_smoke` starts a :class:`~repro.serve.BackgroundServer`, drives
  it from concurrent clients plus two raw-socket exchanges, and asserts every
  reply and a clean shutdown;
* :func:`parse_prometheus_text` validates ``/metrics`` output — malformed
  sample lines, unparseable values, non-monotonic ``le`` buckets — without
  implementing the full exposition grammar;
* :func:`count_evaluations` counts an ``OnlineAnswerer``'s Eq 7
  evaluations past its answer cache.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request
from typing import TYPE_CHECKING

from repro.serve import BackgroundServer, ServeConfig

if TYPE_CHECKING:
    from repro.core.system import KBQA


def run_smoke(
    system: "KBQA",
    questions: list[str],
    *,
    threads: int = 8,
    requests_per_thread: int = 4,
    config: ServeConfig | None = None,
) -> dict:
    """Start a server, hammer it from ``threads`` concurrent clients, stop.

    Every client issues ``requests_per_thread`` ``POST /answer`` calls (the
    question stream repeats, so the cache-hit lane and the wire memo get
    exercised), one client-side
    ``/batch``, and a ``/healthz`` + ``/stats`` read; ``/metrics`` must
    parse as Prometheus text format.  Two raw-socket exchanges check the
    connection state machine: a pipelined pair must come back as two
    replies in request order, and an HTTP/1.0 request (no ``Connection``
    header) must be answered ``Connection: close`` and hung up on.  Raises
    ``RuntimeError`` on any non-200, mismatched payload, or unclean
    shutdown; returns a summary dict on success.
    """
    if not questions:
        raise ValueError("need at least one question for the smoke run")

    def post(url: str, payload: dict) -> tuple[int, dict]:
        data = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode("utf-8"))

    def raw_exchange(url: str, payload: bytes) -> list[tuple[bytes, dict]]:
        """Send ``payload``, read to the server's close; (head, JSON) per reply."""
        parts = urllib.parse.urlsplit(url)
        with socket.create_connection((parts.hostname, parts.port), timeout=30) as sock:
            sock.sendall(payload)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        replies = []
        while data:
            head, _, rest = data.partition(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
            replies.append((head, json.loads(rest[:length])))
            data = rest[length:]
        return replies

    def answer_bytes(question: str, version: str, *headers: str) -> bytes:
        body = json.dumps({"question": question}).encode("utf-8")
        lines = [f"POST /answer {version}", f"Content-Length: {len(body)}", *headers]
        return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body

    failures: list[str] = []
    statuses: list[int] = []
    lock = threading.Lock()

    with BackgroundServer(system, config) as bg:
        answer_url = bg.url + "/answer"

        def client(worker: int) -> None:
            for i in range(requests_per_thread):
                question = questions[(worker + i) % len(questions)]
                try:
                    status, payload = post(answer_url, {"question": question})
                except Exception as error:  # transport failure is a failure
                    with lock:
                        failures.append(f"/answer transport error: {error!r}")
                    continue
                with lock:
                    statuses.append(status)
                    if status != 200:
                        failures.append(f"/answer -> {status}: {payload}")
                    elif payload.get("question") != question:
                        failures.append(f"/answer echoed {payload.get('question')!r}")

        workers = [
            threading.Thread(target=client, args=(n,), name=f"smoke-{n}")
            for n in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            if worker.is_alive():
                failures.append(f"client thread {worker.name} hung")
        expected = threads * requests_per_thread
        if len(statuses) + sum("transport" in f for f in failures) != expected:
            failures.append(
                f"only {len(statuses)}/{expected} /answer responses recorded"
            )

        status, batch = post(bg.url + "/batch", {"questions": questions[:4] * 2})
        if status != 200 or len(batch.get("results", [])) != len(questions[:4] * 2):
            failures.append(f"/batch -> {status}: {batch}")

        try:
            pair = [questions[0], questions[-1]]
            replies = raw_exchange(
                bg.url,
                answer_bytes(pair[0], "HTTP/1.1")
                + answer_bytes(pair[1], "HTTP/1.1", "Connection: close"),
            )
            if [body.get("question") for _head, body in replies] != pair or not all(
                head.startswith(b"HTTP/1.1 200 ") for head, _body in replies
            ):
                failures.append(f"pipelined pair came back as {replies}")
            replies = raw_exchange(bg.url, answer_bytes(pair[0], "HTTP/1.0"))
            if len(replies) != 1 or b"connection: close" not in replies[0][0].lower():
                failures.append(f"HTTP/1.0 request was not answered-and-closed: {replies}")
        except (OSError, ValueError, IndexError) as error:
            # a timeout here is the server holding the connection open
            failures.append(f"raw-socket exchange failed: {error!r}")

        with urllib.request.urlopen(bg.url + "/metrics", timeout=30) as resp:
            metrics_text = resp.read().decode("utf-8")
        try:
            metrics_series = parse_prometheus_text(metrics_text)
        except ValueError as error:
            metrics_series = {}
            failures.append(f"/metrics does not parse: {error}")
        else:
            for required in ("kbqa_stage_latency_ms_bucket", "kbqa_serve_events_total"):
                if required not in metrics_series:
                    failures.append(f"/metrics is missing {required}")

        with urllib.request.urlopen(bg.url + "/healthz", timeout=30) as resp:
            if resp.status != 200:
                failures.append(f"/healthz -> {resp.status}")
        with urllib.request.urlopen(bg.url + "/stats", timeout=30) as resp:
            stats = json.loads(resp.read().decode("utf-8"))
        thread = bg._thread

    if thread is not None and thread.is_alive():
        failures.append("server thread still alive after shutdown")
    if failures:
        raise RuntimeError("serving smoke failed: " + "; ".join(failures))
    serve_stats = stats["serve"]
    return {
        "requests": len(statuses),
        "http_200": sum(1 for s in statuses if s == 200),
        "serve_requests": serve_stats["requests"],
        "inline_hits": serve_stats["inline_hits"],
        "coalesced": serve_stats["coalesced"],
        "batches": serve_stats["batches"],
        "max_batch_seen": serve_stats["max_batch_seen"],
        "metrics_series": len(metrics_series),
        "clean_shutdown": True,
    }


def count_evaluations(answerer, monkeypatch) -> list[str]:
    """Spy on ``answerer``'s Eq 7 evaluations (``_answer_tokens``): the
    returned list grows by the question of every evaluation past the
    answer cache."""
    seen: list[str] = []
    evaluate = answerer._answer_tokens

    def spy(question, tokens):
        seen.append(question)
        return evaluate(question, tokens)

    monkeypatch.setattr(answerer, "_answer_tokens", spy)
    return seen


def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse (and validate) Prometheus text format into
    ``{metric: [(labels, value), ...]}``.

    Strict enough to catch real framing bugs — malformed sample lines,
    unparseable values, non-monotonic ``le`` bucket counts — without
    implementing the full exposition grammar.  Raises ``ValueError``.
    """
    series: dict[str, list[tuple[dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"line {lineno}: no metric name in {line!r}")
        try:
            value = float(value_part)
        except ValueError:
            raise ValueError(
                f"line {lineno}: unparseable value {value_part!r}"
            ) from None
        labels: dict[str, str] = {}
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"line {lineno}: unterminated labels in {line!r}")
            name, _, label_blob = name_part.partition("{")
            for pair in _split_labels(label_blob[:-1], lineno):
                key, sep, raw = pair.partition("=")
                if not sep or len(raw) < 2 or raw[0] != '"' or raw[-1] != '"':
                    raise ValueError(f"line {lineno}: malformed label {pair!r}")
                labels[key] = _unescape_label(raw[1:-1])
        else:
            name = name_part
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: invalid metric name {name!r}")
        series.setdefault(name, []).append((labels, value))
    for name, samples in series.items():
        if name.endswith("_bucket"):
            _check_bucket_monotonic(name, samples)
    return series


def _unescape_label(raw: str) -> str:
    """Invert ``repro.serve.metrics._escape_label`` — a left-to-right scan, because chained
    ``str.replace`` calls corrupt ``\\\\n`` (escaped-backslash + n)."""
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _split_labels(blob: str, lineno: int) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated quote in labels")
    if current:
        parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]


def _check_bucket_monotonic(
    name: str, samples: list[tuple[dict[str, str], float]]
) -> None:
    """Cumulative ``le`` bucket counts must be non-decreasing per series."""
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for labels, value in samples:
        le = labels.get("le")
        if le is None:
            raise ValueError(f"{name}: bucket sample without le label")
        bound = float("inf") if le == "+Inf" else float(le)
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        groups.setdefault(key, []).append((bound, value))
    for key, buckets in groups.items():
        buckets.sort()
        last = -1.0
        for bound, value in buckets:
            if value < last:
                raise ValueError(
                    f"{name}{dict(key)}: bucket counts not monotonic at le={bound}"
                )
            last = value
