"""SO_REUSEPORT multi-process serving front: N loops, one port.

One server process is one event loop plus GIL-bound evaluation threads:
HTTP parsing, JSON encoding, socket writes and Eq 7 all share one core.
This module is how serving uses more: it forks N full server processes —
each with its own event loop, its own :class:`~repro.serve.app.KBQAServer`
and its own evaluation threads — all listening on the **same** host:port
via ``SO_REUSEPORT``, so the kernel load-balances accepted connections
across the processes and the whole serving stack scales with cores.

Topology and protocols:

* **fork-and-inherit** — the parent trains (or receives) the system once;
  children are forked and inherit the trained state by copy-on-write
  (nothing is pickled; a live ``KBQA`` deliberately refuses pickling).
  Requires the ``fork`` start method and ``SO_REUSEPORT`` (both POSIX);
  :func:`multiproc_available` reports support.
* **port reservation** — with ``port=0`` the parent binds a placeholder
  ``SO_REUSEPORT`` socket first to fix the ephemeral port; the placeholder
  never listens, so it takes no connections, and every child binds its own
  listening socket to the reserved port.
* **cross-process writes** — each child registers a
  ``KBQAServer.fact_listener``: a successful ``/facts`` mutation is
  appended to a shared operation log under an exclusive ``flock`` on the
  log file.  Every child polls the log's size from its loop (``os.stat``,
  no lock) and replays foreign entries, read under a shared ``flock``,
  through :meth:`AsyncAnswerer.apply` — the same write-quiescence path a
  local mutation takes — so an edit served by any process becomes visible
  on all of them (bounded by the poll interval), and each child's serving
  epoch bumps exactly as if the write were local.  Replay skips a child's
  own entries (already applied before they were logged).  The kernel drops
  a ``flock`` when its holder dies, so a replica SIGKILLed at any
  instruction — mid-append included — cannot wedge its siblings (a
  ``multiprocessing`` lock or ``Value`` would stay held forever).
* **supervision / self-healing** — the parent runs a supervisor thread
  that polls the children: a replica that died (SIGKILL, OOM, crash) is
  reaped and a replacement is forked from the parent's pristine system.  The
  replacement **catches up before it accepts traffic**: it replays the
  full op log onto its inherited system synchronously, *then* binds its
  ``SO_REUSEPORT`` socket — so a request load-balanced onto the healed
  replica can never observe pre-crash KB state.  Respawns are bounded
  (``max_respawns``) so a replica that dies deterministically on startup
  degrades to fewer replicas instead of a fork loop.
* **shutdown** — the parent sets a shared stop event; children drain their
  servers (which joins their evaluation threads) and exit; the parent
  joins the supervisor, then every child, and escalates to ``terminate``
  only past a deadline.  ``tests/test_serve_http.py`` asserts no child
  survives.

The log-replay protocol is best-effort ordered (entries apply in global log
order on every replica, but a replica's *own* write applies at its local
time): concurrent writers to semantically conflicting facts should
serialize at a higher layer.  For the read-heavy QA workload this targets,
writes are rare and idempotent (``add``/``delete`` of explicit triples).
"""

from __future__ import annotations

import fcntl
import json
import multiprocessing
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.serve.async_answerer import ServeConfig

if TYPE_CHECKING:
    from repro.core.system import KBQA

DEFAULT_POLL_INTERVAL_S = 0.02

_PR_SET_PDEATHSIG = 1  # linux/prctl.h


def bind_to_parent_death() -> None:
    """Best-effort ``PR_SET_PDEATHSIG``: die when the owning process dies.

    A forked server replica whose parent is SIGKILL'd would otherwise
    outlive ``stop()`` forever.  Linux-only; elsewhere (and on any prctl
    failure) this is a silent no-op, and the caller's join/terminate path
    remains the cleanup of record.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except Exception:  # pragma: no cover - no libc/prctl: nothing to bind
        return
    if os.getppid() == 1:  # parent died between fork and prctl
        os._exit(1)


def multiproc_available() -> bool:
    """True when this platform can run the multi-process front
    (``SO_REUSEPORT`` + the ``fork`` start method)."""
    return hasattr(socket, "SO_REUSEPORT") and (
        "fork" in multiprocessing.get_all_start_methods()
    )


@contextmanager
def _oplog_locked(oplog_path: str, mode: str) -> Iterator:
    """Open the op log holding a ``flock`` on it: exclusive for ``"ab"``
    (append), shared for ``"rb"`` (read).  The kernel releases the lock when
    the file closes or its holder dies, however abruptly."""
    with open(oplog_path, mode) as handle:
        fcntl.flock(handle, fcntl.LOCK_EX if "a" in mode else fcntl.LOCK_SH)
        yield handle


def _append_op(oplog_path: str, entry: dict) -> int:
    """Append one op to the log; returns its byte offset (its identity)."""
    line = (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")
    with _oplog_locked(oplog_path, "ab") as handle:
        offset = handle.seek(0, os.SEEK_END)
        handle.write(line)
    return offset


def _read_ops(oplog_path: str, start: int) -> tuple[list[tuple[int, dict]], int]:
    """The entries from byte ``start`` on, as ``(offset, entry)`` pairs,
    and the offset just past the last of them.  Read under the shared lock,
    so no append is half-written."""
    with _oplog_locked(oplog_path, "rb") as handle:
        handle.seek(start)
        data = handle.read()
    entries = []
    offset = start
    for line in data.splitlines(keepends=True):
        entries.append((offset, json.loads(line)))
        offset += len(line)
    return entries, offset


def _apply_replicated(system, op: str, subject: str, predicate: str, obj: str) -> None:
    """Apply one foreign op-log entry to this replica's system.

    With heap-backed stores the add/delete mutates this replica's private
    copy and fires its listeners.  With a shared-storage backend (the disk
    store: every replica opens the same SQLite file) the originating
    replica already wrote the row, so the local mutation is a no-op — but
    the change still has to reach this *process's* listeners (expansion
    maintainer, answer-cache invalidation), which is what the backend's
    ``notify_external`` hook does.
    """
    if op == "add":
        changed = system.add_fact(subject, predicate, obj)
    else:
        changed = system.delete_fact(subject, predicate, obj)
    if not changed:
        store = system.kb.store
        if getattr(store, "shared_storage", False):
            store.notify_external(op, subject, predicate, obj)


async def _replay_ops(server, oplog_path: str, applied: int, own: set[int]) -> int:
    """Apply foreign log entries from byte ``applied`` onward; returns the
    new cursor.  Each entry goes through the quiesced ``apply`` path, so the
    local serving epoch bumps exactly as for a local write."""
    entries, cursor = _read_ops(oplog_path, applied)
    for offset, entry in entries:
        if offset in own:
            own.discard(offset)
            continue
        mutation = lambda e=entry: _apply_replicated(  # noqa: E731
            server.system, e["op"], e["s"], e["p"], e["o"]
        )
        await server.answerer.apply(mutation)
    return cursor


METRICS_DUMP_INTERVAL_S = 0.1


def _child_main(
    system: "KBQA",
    config: ServeConfig | None,
    host: str,
    port: int,
    index: int,
    stop_event,
    ready,
    errors,
    oplog_path: str,
    poll_interval_s: float,
    metrics_dir: str | None = None,
) -> None:
    """Entry point of one forked server process."""
    import asyncio

    # the parent coordinates shutdown through the stop event; a terminal
    # Ctrl-C must not race it with KeyboardInterrupts in every child
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # and a SIGKILL'd parent must not leak replicas: die with it.  (For a
    # replica forked by the supervisor thread the signal fires when that
    # *thread* exits — which only happens at teardown, after the stop event
    # is set, so it merely hastens an exit already in progress.)
    bind_to_parent_death()

    async def serve() -> None:
        from repro.serve.app import KBQAServer

        # Catch up before accepting traffic: a *respawned* replica forks
        # from the parent's original (pre-crash) system, so every logged op
        # is foreign to it and must land before the socket binds.  Nothing
        # is running yet, so the replay is a plain synchronous loop — no
        # quiescence protocol needed.  (First-generation children see an
        # empty log; this is a no-op for them.)
        entries, applied = _read_ops(oplog_path, 0)
        for _offset, entry in entries:
            _apply_replicated(system, entry["op"], entry["s"], entry["p"], entry["o"])
        own: set[int] = set()
        server = KBQAServer(
            system,
            config,
            host,
            port,
            reuse_port=True,
            metrics_dir=metrics_dir,
            replica_index=index,
        )

        def on_fact(op: str, subject: str, predicate: str, obj: str) -> None:
            own.add(
                _append_op(oplog_path, {"op": op, "s": subject, "p": predicate, "o": obj})
            )

        server.fact_listener = on_fact
        await server.start()
        ready.release()
        last_dump = 0.0
        try:
            while not stop_event.is_set():
                if os.stat(oplog_path).st_size > applied:
                    applied = await _replay_ops(server, oplog_path, applied, own)
                now = time.monotonic()
                if now - last_dump >= METRICS_DUMP_INTERVAL_S:
                    # publish cumulative metrics so whichever sibling serves
                    # a /metrics scrape can merge this replica's counters
                    server.dump_metrics()
                    last_dump = now
                await asyncio.sleep(poll_interval_s)
        finally:
            server.dump_metrics()  # final state survives for late scrapes
            await server.stop()

    try:
        asyncio.run(serve())
    except BaseException as error:  # surface child failures to the parent
        try:
            errors.put(f"server process {index}: {type(error).__name__}: {error}")
        except Exception:
            pass
        raise SystemExit(1)
    raise SystemExit(0)


class MultiProcessServer:
    """``procs`` forked :class:`~repro.serve.app.KBQAServer` replicas
    sharing one ``SO_REUSEPORT`` port.  Synchronous context manager::

        with MultiProcessServer(system, procs=4) as front:
            urllib.request.urlopen(front.url + "/healthz")

    Entering forks and blocks until every replica's socket is bound (or
    raises with the children's startup errors); exiting stops and joins
    every child, so leaked server processes are impossible.
    """

    def __init__(
        self,
        system: "KBQA",
        config: ServeConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        procs: int = 2,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        ready_timeout_s: float = 120.0,
        max_respawns: int = 8,
        supervise_interval_s: float = 0.05,
    ) -> None:
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        if not multiproc_available():
            raise ValueError(
                "multi-process serving needs SO_REUSEPORT and the fork start "
                "method (POSIX); use a single-process server here"
            )
        self._system = system
        self._config = config
        self.host = host
        self.port = port
        self.procs = procs
        self._poll_interval_s = poll_interval_s
        self._ready_timeout_s = ready_timeout_s
        self._max_respawns = max_respawns
        self._supervise_interval_s = supervise_interval_s
        self._ctx = multiprocessing.get_context("fork")
        self._children: list = []
        self._placeholder: socket.socket | None = None
        self._oplog_path: str | None = None
        self._metrics_dir: str | None = None
        self._stop_event = None
        self._errors = None
        self._ready = None
        self._supervisor: threading.Thread | None = None
        self._given_up: set[int] = set()  # slots past the respawn budget
        self.respawned = 0  # replicas replaced after dying (self-healing)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MultiProcessServer":
        # Reserve the port: bound (never listening) with SO_REUSEPORT so the
        # children can bind their listening sockets to the same address.
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            placeholder.bind((self.host, self.port))
        except OSError:
            placeholder.close()
            raise
        self._placeholder = placeholder
        self.port = placeholder.getsockname()[1]

        fd, self._oplog_path = tempfile.mkstemp(prefix="kbqa-oplog-", suffix=".jsonl")
        os.close(fd)
        self._metrics_dir = tempfile.mkdtemp(prefix="kbqa-metrics-")
        self._stop_event = self._ctx.Event()
        self._ready = self._ctx.Semaphore(0)
        self._errors = self._ctx.Queue()

        try:
            for index in range(self.procs):
                self._children.append(self._spawn_child(index))

            deadline = time.monotonic() + self._ready_timeout_s
            for _ in range(self.procs):
                if not self._ready.acquire(
                    timeout=max(deadline - time.monotonic(), 0.001)
                ):
                    failures = self._drain_errors()
                    raise RuntimeError(
                        "multi-process server failed to start"
                        + (": " + "; ".join(failures) if failures else "")
                    )
        except BaseException:
            # a failed fork or a replica that never became ready must not
            # leak the ones that did start, the port, or the op log
            self._teardown(force=True)
            raise
        self._supervisor = threading.Thread(
            target=self._supervise, name="kbqa-serve-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._teardown(force=False)
        failures = self._drain_errors()
        if failures:
            raise RuntimeError("server process failed: " + "; ".join(failures))

    # -- Internals ---------------------------------------------------------

    def _spawn_child(self, index: int):
        """Fork one replica for slot ``index`` (initial start and respawn)."""
        child = self._ctx.Process(
            target=_child_main,
            args=(
                self._system,
                self._config,
                self.host,
                self.port,
                index,
                self._stop_event,
                self._ready,
                self._errors,
                self._oplog_path,
                self._poll_interval_s,
                self._metrics_dir,
            ),
            # not daemonic: an exiting parent joins replicas (they drain and
            # stop their servers) instead of terminating them mid-request
            name=f"kbqa-serve-{index}",
            daemon=False,
        )
        child.start()
        return child

    def _supervise(self) -> None:
        """Parent-side self-healing loop: reap dead replicas, fork
        replacements.

        A replacement forks from the parent's pristine system and catches
        itself up from the op log before binding (see ``_child_main``), so
        the slot returns at full correctness, not just full capacity.
        Slots that exhaust ``max_respawns`` are abandoned (``_given_up``):
        deterministic startup crashes degrade to fewer replicas instead of
        a fork loop.
        """
        assert self._stop_event is not None and self._ready is not None
        while not self._stop_event.wait(self._supervise_interval_s):
            for index, child in enumerate(self._children):
                if child.is_alive() or index in self._given_up:
                    continue
                child.join(timeout=0.1)  # reap the corpse
                if self.respawned >= self._max_respawns:
                    self._given_up.add(index)
                    continue
                if self._stop_event.is_set():
                    return
                self._children[index] = self._spawn_child(index)
                self.respawned += 1
                # wait (interruptibly) until the replacement binds, so one
                # flapping slot cannot fork faster than children come up
                deadline = time.monotonic() + self._ready_timeout_s
                while not self._stop_event.is_set():
                    if self._ready.acquire(timeout=0.1):
                        break
                    if time.monotonic() > deadline:
                        self._given_up.add(index)
                        break

    def _drain_errors(self) -> list[str]:
        failures: list[str] = []
        if self._errors is not None:
            try:
                while True:
                    failures.append(self._errors.get_nowait())
            except Exception:
                pass
        return failures

    def _teardown(self, *, force: bool) -> None:
        if self._stop_event is not None:
            self._stop_event.set()
        if self._supervisor is not None:
            # join the supervisor *before* the children: no respawn may
            # race the joins below, or a fresh fork could outlive teardown
            self._supervisor.join(timeout=10.0)
            self._supervisor = None
        deadline = time.monotonic() + (5.0 if force else 30.0)
        for child in self._children:
            while True:
                try:
                    child.join(timeout=max(deadline - time.monotonic(), 0.001))
                    break
                except KeyboardInterrupt:
                    # a repeated Ctrl-C lands mid-join (terminals signal the
                    # whole group); shorten the deadline and keep joining so
                    # children are never orphaned by an impatient operator
                    deadline = min(deadline, time.monotonic() + 2.0)
        for child in self._children:
            if child.is_alive():  # escalate only past the deadline
                child.terminate()
                child.join(timeout=5.0)
        self._children.clear()
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        if self._oplog_path is not None:
            try:
                os.unlink(self._oplog_path)
            except OSError:
                pass
            self._oplog_path = None
        if self._metrics_dir is not None:
            shutil.rmtree(self._metrics_dir, ignore_errors=True)
            self._metrics_dir = None
