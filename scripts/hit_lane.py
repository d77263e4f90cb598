#!/usr/bin/env python3
"""Microbenchmark of the HTTP cache-hit lane: ``data_received`` to ``write``.

    PYTHONPATH=src python3 scripts/hit_lane.py [--requests 20000] [--rounds 5]

Trains the small suite, starts an ``AsyncAnswerer`` on a ``KBQAServer``
without binding a socket, and drives one ``_Connection`` over a fake
transport that only counts the writes.  The traffic is the small suite's
first ``HOT`` distinct gold factoids (fewer than the answer cache holds, so
every measured request is a hit); each is asked twice first, which warms
the answer cache and the wire memo.  Each round then feeds ``--requests``
Zipf(1.1) draws over them, one request per ``data_received`` call, and
prints the mean microseconds per request.  Two traffic shapes:

* ``repeated`` — the end-to-end load generator's bytes
  (``benchmarks.e2e.loadgen.request_bytes``): a question's request is the
  same bytes every time;
* ``fresh-headers`` — the same requests with an ``X-Request-Id`` header
  that differs on every request, so no two requests share their bytes;
* ``fresh-body`` — the same questions with a JSON ``"id"`` field that
  differs on every request, so no two requests share their body.

The ``parse_request`` line times the parser alone on the repeated stream.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]

from benchmarks.e2e.inputs import gold_factoids, zipf_draws  # noqa: E402
from benchmarks.e2e.loadgen import request_bytes  # noqa: E402
from repro.core.system import KBQA  # noqa: E402
from repro.serve.app import KBQAServer, _Connection  # noqa: E402
from repro.serve.http import parse_request  # noqa: E402
from repro.suite import build_suite  # noqa: E402

HOST = "127.0.0.1"
HOT = 1024


class SinkTransport(asyncio.Transport):
    """Just enough of ``asyncio.Transport`` for ``_Connection``."""

    def __init__(self) -> None:
        super().__init__()
        self.written = 0
        self.closed = False

    def write(self, data: bytes) -> None:
        self.written += 1

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass


def tagged(wire: bytes, serial: int) -> bytes:
    """``wire`` with an ``X-Request-Id`` header after its request line."""
    line, rest = wire.split(b"\r\n", 1)
    return line + b"\r\nX-Request-Id: %d\r\n" % serial + rest


def numbered(question: str, serial: int) -> bytes:
    """A request whose JSON body carries ``"id": serial`` beside the question."""
    body = json.dumps({"question": question, "id": serial}).encode("utf-8")
    head = request_bytes(HOST, question).split(b"\r\n\r\n", 1)[0]
    head = head.rsplit(b"Content-Length: ", 1)[0] + b"Content-Length: %d" % len(body)
    return head + b"\r\n\r\n" + body


async def rounds(system: KBQA, streams: dict[str, list[bytes]], warm: list[bytes],
                 count: int) -> dict[str, object]:
    server = KBQAServer(system)
    await server.answerer.start()
    try:
        connection = _Connection(server)
        transport = SinkTransport()
        connection.connection_made(transport)
        for wire in warm + warm:
            connection.data_received(wire)
            while connection.task is not None:  # a miss: let the queue answer it
                await asyncio.sleep(0.001)
        timings: dict[str, float] = {}
        for name, stream in streams.items():
            before = server.answerer.stats.inline_hits
            wire_before = getattr(server, "wire_hits", 0)
            started = time.perf_counter()
            for wire in stream:
                connection.data_received(wire)
            timings[name] = (time.perf_counter() - started) * 1e6 / count
            assert transport.written and not connection.task and not connection.buffer
            inline = server.answerer.stats.inline_hits - before
            assert inline == count, (name, inline)
            timings[name + ".wire_share"] = (getattr(server, "wire_hits", 0) - wire_before) / count
        return timings
    finally:
        await server.answerer.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args()

    suite = build_suite("small", seed=7)
    system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)
    gold = gold_factoids(suite.corpus)[:HOT]
    warm = [request_bytes(HOST, question) for question, _values in gold]
    rng = random.Random(args.seed)
    results: dict[str, list[float]] = {}
    serial = 0
    for _round in range(args.rounds):
        draws = zipf_draws(gold, args.requests, 1.1, rng)
        repeated = [request_bytes(HOST, question) for question, _values in draws]
        fresh, bodies = [], []
        for wire, (question, _values) in zip(repeated, draws):
            serial += 1
            fresh.append(tagged(wire, serial))
            bodies.append(numbered(question, serial))
        buffers = [bytearray(wire) for wire in repeated]
        started = time.perf_counter()
        for buffer in buffers:
            parse_request(buffer)
        parse_us = (time.perf_counter() - started) * 1e6 / len(buffers)
        timings = asyncio.run(
            rounds(system, {"repeated": repeated, "fresh-headers": fresh, "fresh-body": bodies},
                   warm, args.requests)
        )
        timings["parse_request"] = parse_us
        for name, value in timings.items():
            results.setdefault(name, []).append(value)
    system.close()
    for name, values in results.items():
        cells = " ".join(f"{value:.3f}" for value in values)
        print(f"{name:26s} median {statistics.median(values):7.3f}  rounds {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
