"""Pluggable execution backends: serial / thread / process behind one protocol.

The Sec 6.2 expansion scan is a pure-python CPU loop, so a thread pool over
shards is GIL-bound — `shard_sweep` in ``BENCH_perf.json`` is ~flat across
shard counts.  This module is the seam for running it elsewhere: an
:class:`Executor` maps a *picklable, frozen* task list to a result list with
**order preserved**, and the shard-parallel scan (``repro.kb.expansion``)
runs one scan task per shard through it and merges the buffers in shard
order — output byte-identical to the serial scan regardless of backend.
(Online serving does not come through here: it evaluates on its own thread
pool and scales with ``--procs`` replicas.)

Three implementations:

* :class:`SerialExecutor` — in-caller evaluation, the determinism baseline;
* :class:`ThreadExecutor` — shared-memory thread pool (cheap task handoff,
  GIL-bound for pure-python work; still wins when tasks release the GIL);
* :class:`ProcessExecutor` — shared-nothing process pool.  Tasks, results
  and the optional resident *payload* (e.g. encoded shard tables, shipped
  once per worker at pool start instead of once per task) must be picklable;
  ``tests/test_exec_pickle.py`` locks that down in tier-1 so a future
  unpicklable field fails in CI instead of as a worker traceback.

Selection is uniform everywhere: an explicit argument wins, else the
``KBQA_EXEC`` / ``KBQA_WORKERS`` environment variables (the CI process leg
runs the whole suite under ``KBQA_EXEC=process KBQA_WORKERS=2``), else a
per-call-site default.  All worker counts clamp to >= 1 no matter what the
environment or ``os.cpu_count()`` report.
"""

from __future__ import annotations

import os
import signal
import sys
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Protocol, Sequence, TypeVar, runtime_checkable

EXEC_ENV = "KBQA_EXEC"
WORKERS_ENV = "KBQA_WORKERS"

EXEC_KINDS = ("serial", "thread", "process")

T = TypeVar("T")
R = TypeVar("R")

# Resident payload of the current *worker process*, installed by the pool
# initializer before the first task runs (see ProcessExecutor).  In the
# serial/thread backends tasks run in the caller's process, where the
# executor sets the same global, so task functions are backend-agnostic.
_WORKER_PAYLOAD: object | None = None


def _install_payload(payload: object) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


_PR_SET_PDEATHSIG = 1  # linux/prctl.h


def bind_to_parent_death() -> None:
    """Best-effort ``PR_SET_PDEATHSIG``: die when the owning process dies.

    A pool worker (or a forked server replica) whose parent is SIGKILL'd is
    otherwise orphaned on a call-queue read that can never see EOF — every
    sibling holds the pipe's write end — and outlives ``stop()`` forever.
    Linux-only; elsewhere (and on any prctl failure) this is a silent no-op,
    and the caller's join/terminate path remains the cleanup of record.
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


def _init_worker(payload: object | None = None) -> None:
    """Process-pool worker initializer: parent-death binding + payload."""
    bind_to_parent_death()
    if payload is not None:
        _install_payload(payload)


def worker_payload() -> object | None:
    """The payload resident in this worker (None when the pool has none)."""
    return _WORKER_PAYLOAD


@runtime_checkable
class Executor(Protocol):
    """What every execution backend provides.

    ``map`` evaluates ``fn`` over ``tasks`` and returns the results **in
    task order** — the property the shard-ordered merge and every
    equivalence test lean on.  ``submit`` is the one-task async form; a
    :class:`SerialExecutor` runs the task *at submit time* and returns an
    already-resolved future, which is exactly serial semantics.  ``kind`` names the backend; ``workers`` is its parallelism.
    ``close`` releases pool resources (idempotent).
    """

    kind: str
    workers: int

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        ...

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        ...

    def close(self) -> None:
        ...


class SerialExecutor:
    """Run every task inline, in order — the determinism baseline."""

    kind = "serial"

    def __init__(self, workers: int = 1, payload: object | None = None) -> None:
        self.workers = 1
        self._payload = payload

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Evaluate every task inline, in order."""
        if self._payload is not None:
            _install_payload(self._payload)
        return [fn(task) for task in tasks]

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Run ``fn`` now; return an already-resolved future."""
        if self._payload is not None:
            _install_payload(self._payload)
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:
            future.set_exception(error)
        return future

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ThreadExecutor:
    """A thread pool; tasks share the caller's memory (no pickling)."""

    kind = "thread"

    def __init__(self, workers: int | None = None, payload: object | None = None) -> None:
        self.workers = resolve_workers(workers)
        self._payload = payload
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="kbqa-exec"
        )

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Evaluate the tasks on the pool; results in task order."""
        if self._payload is not None:
            _install_payload(self._payload)
        return list(self._pool.map(fn, tasks))

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Submit one call to the pool."""
        if self._payload is not None:
            _install_payload(self._payload)
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Shut the pool down, joining every worker thread."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProcessExecutor:
    """A shared-nothing process pool over picklable frozen tasks.

    ``payload`` is pickled **once per worker** at pool start (through the
    initializer) rather than once per task; task functions read it back via
    :func:`worker_payload`.  The expansion scan ships its encoded shard
    tables this way, so per-round tasks carry only the (pruned) frontier.

    ``map`` preserves task order (``ProcessPoolExecutor.map`` semantics), so
    a shard-ordered merge over the results is deterministic.  ``close``
    joins every worker; leaked children after close are a bug
    (``tests/test_exec_concurrency.py`` asserts none).
    """

    kind = "process"

    def __init__(self, workers: int | None = None, payload: object | None = None) -> None:
        self.workers = resolve_workers(workers)
        # the initializer always runs: every worker binds to this process's
        # death (PR_SET_PDEATHSIG) so a SIGKILL'd owner cannot leak workers
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(payload,),
        )

    def map(self, fn: Callable[[T], R], tasks: Sequence[T]) -> list[R]:
        """Evaluate the (picklable) tasks on the pool; results in task order."""
        return list(self._pool.map(fn, tasks))

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Submit one picklable call to the pool."""
        return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Shut the pool down, joining every worker process."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_EXECUTORS: dict[str, type] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def resolve_workers(workers: int | None = None, fallback: int | None = None) -> int:
    """Effective worker count: explicit arg > ``KBQA_WORKERS`` > fallback >
    ``os.cpu_count()`` — always clamped to >= 1 (CI runners may report 0/None
    cores or export nonsense; a pool of zero workers deadlocks)."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                workers = None
    if workers is None:
        workers = fallback if fallback is not None else os.cpu_count()
    try:
        return max(1, int(workers)) if workers is not None else 1
    except (TypeError, ValueError):
        return 1


def resolve_exec_kind(kind: str | None = None, default: str = "serial") -> str:
    """Effective backend kind: explicit arg > ``KBQA_EXEC`` > ``default``.

    Raises :class:`ValueError` on an unknown kind so a typo in a flag or the
    environment fails loudly instead of silently running serial.
    """
    if kind is None:
        kind = os.environ.get(EXEC_ENV) or default
    kind = kind.strip().lower()
    if kind not in _EXECUTORS:
        raise ValueError(
            f"unknown execution backend {kind!r} (choose from {', '.join(EXEC_KINDS)})"
        )
    return kind


def make_executor(
    kind: str | None = None,
    workers: int | None = None,
    *,
    payload: object | None = None,
    default: str = "serial",
) -> Executor:
    """Build an executor from a spec (explicit > environment > ``default``)."""
    return _EXECUTORS[resolve_exec_kind(kind, default)](workers, payload=payload)
