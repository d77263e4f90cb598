"""The benchmark's own HTTP load generator: stdlib asyncio, keep-alive, one process.

Raw HTTP/1.1 requests over persistent connections, closed loop (each
connection sends its next request when the previous reply is in) and open
loop (a seeded Poisson schedule over a connection pool, optionally stretched
by the host-speed factor, latency counted from the *scheduled* send instant so a stall is charged to every request it
delays, with the generator's own lateness recorded).  Every reply's status
and body are checked against gold.

Deliberately not ``benchmarks/bench_qps.measure_http_qps`` (urllib, one TCP
connect per request, threads) nor ``repro.serve.loadgen`` (in-process only,
and part of the program under test).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from benchmarks.e2e.inputs import Gold

REQUEST_TIMEOUT_S = 10.0


@dataclass
class PhaseResult:
    attempted: int = 0
    failed: int = 0  # non-200, timeout, connection error, unparsable body
    wrong: int = 0  # 200 but value set != gold
    wall_s: float = 0.0
    cpu_s: float = 0.0  # the generator's own CPU over the phase
    latencies_ms: list[float] = field(default_factory=list)  # succeeded requests only
    finished: list[float] = field(default_factory=list)  # perf_counter of each of those replies
    lags_ms: list[float] = field(default_factory=list)  # open loop: actual - scheduled send


def request_bytes(host: str, question: str) -> bytes:
    body = json.dumps({"question": question}).encode("utf-8")
    head = (
        f"POST /answer HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection; ``roundtrip`` sends a request, reads a reply."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._reader = self._writer = None

    async def roundtrip(self, payload: bytes) -> tuple[int, bytes]:
        """(status, body) of one request; reconnects first if the peer hung up."""
        if self._writer is None or self._writer.is_closing():
            await self.open()
        assert self._reader is not None and self._writer is not None
        self._writer.write(payload)
        head = await self._reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        body = await self._reader.readexactly(length) if length else b""
        return status, body

    async def get_json(self, path: str) -> dict:
        head = f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode("latin-1")
        async with asyncio.timeout(REQUEST_TIMEOUT_S):
            status, body = await self.roundtrip(head)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(body)


async def _ask(connection: Connection, item: Gold, result: PhaseResult, started: float) -> None:
    """One checked request; latency runs from ``started`` to the last body byte."""
    question, gold = item
    result.attempted += 1
    try:
        async with asyncio.timeout(REQUEST_TIMEOUT_S):
            status, body = await connection.roundtrip(request_bytes(connection.host, question))
    except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, TimeoutError, ValueError):
        result.failed += 1
        await connection.close()  # the stream is out of step; start clean
        return
    finished = time.perf_counter()
    if status != 200:
        result.failed += 1
        return
    try:
        values = frozenset(json.loads(body)["values"])
    except (ValueError, KeyError, TypeError):
        result.failed += 1
        return
    result.latencies_ms.append((finished - started) * 1000.0)
    result.finished.append(finished)
    if values != gold:
        result.wrong += 1


async def closed_loop(
    connections: list[Connection], items: Iterator[Gold], seconds: float
) -> PhaseResult:
    """Each connection asks the next item of the (endless) stream as soon as
    its reply is in."""
    result = PhaseResult()
    deadline = time.perf_counter() + seconds

    async def client(connection: Connection) -> None:
        while time.perf_counter() < deadline:
            await _ask(connection, next(items), result, time.perf_counter())

    cpu_0, wall_0 = time.process_time(), time.perf_counter()
    await asyncio.gather(*(client(connection) for connection in connections))
    result.wall_s = time.perf_counter() - wall_0
    result.cpu_s = time.process_time() - cpu_0
    return result


async def open_loop(
    connections: list[Connection], items: list[Gold], due_offsets_s: list[float],
    dilation: Callable[[], float] = lambda: 1.0,
) -> PhaseResult:
    """Item ``k`` is due ``due_offsets_s[k]`` after the start, each gap
    stretched by ``dilation()`` as read when the item is taken (1 = real
    time); the pool's connections take due items in order.  If every
    connection is busy the item waits - and its latency, counted from the due
    time, includes that wait."""
    result = PhaseResult()
    schedule = iter(zip(due_offsets_s, items))
    origin = time.perf_counter()
    last = [origin, 0.0]  # the previous item's due instant, and its offset

    async def client(connection: Connection) -> None:
        for offset, item in schedule:
            due = last[0] + (offset - last[1]) * dilation()
            last[:] = due, offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lags_ms.append(max(time.perf_counter() - due, 0.0) * 1000.0)
            await _ask(connection, item, result, due)

    cpu_0 = time.process_time()
    await asyncio.gather(*(client(connection) for connection in connections))
    result.wall_s = time.perf_counter() - origin
    result.cpu_s = time.process_time() - cpu_0
    return result
