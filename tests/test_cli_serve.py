"""``kbqa serve`` launched for real: a subprocess, its stdout, SIGINT.

The in-process tests drive :class:`~repro.serve.BackgroundServer`
directly; this one goes through the
command line an operator (or the ``http_zipf`` benchmark) runs, so argument
parsing, training, the ``serving on URL`` line and the Ctrl-C shutdown path
are covered too.  The child inherits the environment, so under
``KBQA_BACKEND=disk`` it serves from the SQLite store.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from tests.serve_harness import parse_prometheus_text

SRC = Path(__file__).resolve().parent.parent / "src"
READY_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 30.0


def _post(url: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _get(url: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read()


def _child_env() -> dict[str, str]:
    """This environment with ``src`` on the child's ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _first_line(child: subprocess.Popen) -> str:
    """The child's first stdout line, or ``""`` if none comes in time."""
    with selectors.DefaultSelector() as selector:
        selector.register(child.stdout, selectors.EVENT_READ)
        if not selector.select(READY_TIMEOUT_S):
            return ""
    return child.stdout.readline().decode("utf-8", "replace")


@pytest.mark.parametrize(
    "extra",
    [[], ["--fallback"]],
    ids=["one-process", "fallback"],
)
def test_kbqa_serve_answers_then_exits_cleanly_on_sigint(extra, suite, kbqa_fb):
    questions = [q.question for q in suite.benchmark("qald3").bfqs()][:6]
    child = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--scale", "small",
         "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    try:
        line = _first_line(child)
        assert line.startswith("serving on http://"), (line, child.poll())
        url = line.split()[2]

        failures: list[str] = []

        def client(worker: int) -> None:
            for i in range(3):
                question = questions[(worker + i) % len(questions)]
                status, payload = _post(url + "/answer", {"question": question})
                if status != 200 or payload["value"] != kbqa_fb.answer(question).value:
                    failures.append(f"{question!r} -> {status}: {payload}")

        workers = [threading.Thread(target=client, args=(n,)) for n in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        assert not any(worker.is_alive() for worker in workers)
        assert failures == []

        status, batch = _post(url + "/batch", {"questions": questions})
        assert status == 200
        assert [r["question"] for r in batch["results"]] == questions
        assert _get(url + "/healthz")[0] == 200
        status, text = _get(url + "/metrics")
        assert status == 200
        series = parse_prometheus_text(text.decode("utf-8"))
        assert "kbqa_stage_latency_ms_bucket" in series
        assert "kbqa_serve_events_total" in series

        child.send_signal(signal.SIGINT)
        assert child.wait(EXIT_TIMEOUT_S) == 0, child.stderr.read().decode()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
        child.stderr.close()
    parts = urllib.parse.urlsplit(url)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((parts.hostname, parts.port), timeout=5).close()


def test_kbqa_serve_on_a_taken_port_exits_1_with_one_line():
    """The bind error itself reaches ``main``: one stderr line naming it,
    exit 1, no traceback (it used to surface as ``RuntimeError: server
    failed to start`` with the ``OSError`` only as the chained cause)."""
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        child = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--scale", "small",
             "--port", str(port)],
            capture_output=True, text=True, env=_child_env(), timeout=READY_TIMEOUT_S,
        )
    assert child.returncode == 1, child.stderr
    assert "Traceback" not in child.stderr
    lines = child.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kbqa serve: error: "), lines
    assert "serving on" not in child.stdout


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_kbqa_serve_refuses_a_port_outside_0_65535(port, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--scale", "small", f"--port={port}"])
    assert exit_info.value.code == 2  # argparse usage error, nothing trained
    assert "0-65535" in capsys.readouterr().err
