"""Persistent, reusable executor pools — warm workers across calls.

PR 4 built an executor *per expansion call*: every ``expand_predicates``
on a process backend paid pool start (N ``fork``/``spawn``\\ s) plus a
per-worker pickle of the shard tables, which is exactly why the
``proc_sweep`` bench recorded overhead instead of scaling.  An
:class:`ExecutorPool` amortizes both:

* the underlying :class:`~repro.exec.backend.Executor` is built lazily on
  first use and **reused** by every subsequent call until :meth:`close` —
  repeated expansions land on already-warm workers;
* bulk payloads (the encoded shard tables) are *published* into shared
  memory (`repro.exec.shm`) instead of shipped per worker or per task:
  :meth:`publish` caches one :class:`~repro.exec.shm.PublishedBlob` per key
  per *generation*, so a payload crosses the process boundary once per
  change, not once per call.

The generation counter is the pool's invalidation protocol: owners bump it
(:meth:`invalidate`) when the state behind a published payload mutates —
``KBQA`` wires its KB change stream here — and the next :meth:`publish`
for that key republishes into a fresh segment while unlinking the stale
one.  Workers attach segments by name, so they observe republication
naturally (new tasks carry the new name).

Lifecycle: the pool is owned by a long-lived object (``KBQA``), closed with
it, and safe to reuse after :meth:`close` (the next call simply starts a
fresh executor) — so a closed system's pool never strands workers.

Supervision: a SIGKILL'd (or OOM-killed) worker breaks the whole underlying
``ProcessPoolExecutor`` — every in-flight and subsequent call raises
``BrokenProcessPool``.  The pool absorbs that: :meth:`respawn` retires the
broken executor (published shared-memory payloads survive — this process,
the publisher, did not die) and the next lease starts fresh workers;
:meth:`run` is the supervised ``map`` that does the
detect/respawn/retry dance itself with a bounded retry budget, so callers
like the expansion scan never see a crash a respawn can absorb.  Each pool
start also sweeps ``kbqa-*`` shared-memory segments orphaned by *previous*
crashed runs (:func:`repro.exec.shm.sweep_orphans`), so leaked segments
never rely solely on atexit hooks that a SIGKILL skips.
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor
from typing import Callable, Sequence

from repro.exec.backend import (
    Executor,
    make_executor,
    resolve_exec_kind,
    resolve_workers,
)
from repro.exec.shm import PublishedBlob, sweep_orphans


class ExecutorPool:
    """A lazily-started, persistent executor plus its published payloads.

    ``kind``/``workers`` resolve once at construction (explicit argument >
    ``KBQA_EXEC``/``KBQA_WORKERS`` environment > ``default``), so every
    lease sees the same backend.  Thread-safe: leases, publishes and
    invalidations may come from serving threads and change listeners
    concurrently.
    """

    def __init__(
        self,
        kind: str | None = None,
        workers: int | None = None,
        *,
        default: str = "serial",
    ) -> None:
        self.kind = resolve_exec_kind(kind, default=default)
        self.workers = 1 if self.kind == "serial" else resolve_workers(workers)
        self._executor: Executor | None = None
        self._generation = 0
        # key -> (generation, blob) for the current generation's publishes
        self._published: dict[str, tuple[int, PublishedBlob]] = {}
        # key -> the previous publish, kept attachable for one republication
        # (a grace window for tasks already in flight against it)
        self._retired: dict[str, PublishedBlob] = {}
        self._lock = threading.Lock()
        self.starts = 0  # executors actually built (pool-start events)
        self.leases = 0  # executor() calls served
        self.publishes = 0  # shared-memory publications (republish events)
        self.respawns = 0  # broken executors retired by supervision
        self.swept = 0  # orphaned kbqa-* segments reclaimed at pool starts

    # -- Executor lease ----------------------------------------------------

    def executor(self) -> Executor:
        """The live executor, building it on first use (warm thereafter)."""
        with self._lock:
            self.leases += 1
            if self._executor is None:
                # reclaim segments leaked by prior crashed runs before
                # spending fresh ones (atexit never runs under SIGKILL)
                self.swept += len(sweep_orphans())
                self._executor = make_executor(self.kind, self.workers)
                self.starts += 1
            return self._executor

    def respawn(self, broken: Executor | None = None) -> bool:
        """Retire a broken executor so the next lease starts fresh workers.

        Pass the executor that raised ``BrokenExecutor``: concurrent
        batches crashing on the *same* broken pool all call in, but only
        the first retires it (identity-checked) — the rest re-lease the
        replacement.  ``broken=None`` retires unconditionally.  Published
        shared-memory payloads are untouched: this process (the publisher)
        is alive, so every segment is still attachable by the fresh
        workers.  Returns True when an executor was actually retired.
        """
        with self._lock:
            if self._executor is None:
                return False
            if broken is not None and self._executor is not broken:
                return False  # a sibling already respawned past this one
            executor, self._executor = self._executor, None
            self.respawns += 1
        try:
            executor.close()  # reaps whatever the crash left behind
        except Exception:  # pragma: no cover - broken pools may refuse
            pass
        return True

    def run(self, fn: Callable, tasks: Sequence, *, crash_retries: int = 2) -> list:
        """Supervised ``map``: on worker death, respawn and retry the call.

        The retry is transparent — ``fn`` over ``tasks`` is re-dispatched
        in full against fresh workers (``Executor.map`` materializes all
        results before returning, so no partial output ever escaped) — and
        bounded: past ``crash_retries`` respawns the ``BrokenExecutor``
        propagates, because a workload that kills every pool it touches is
        a bug to surface, not absorb.
        """
        attempts = 0
        while True:
            executor = self.executor()
            try:
                return executor.map(fn, tasks)
            except BrokenExecutor:
                attempts += 1
                self.respawn(executor)
                if attempts > crash_retries:
                    raise

    # -- Payload publication -----------------------------------------------

    @property
    def generation(self) -> int:
        """Current payload generation (bumped by :meth:`invalidate`)."""
        return self._generation

    def invalidate(self) -> None:
        """Mark every published payload stale (state behind them mutated).

        Cheap and synchronous — stale segments are unlinked lazily, on the
        next :meth:`publish` of their key, so a burst of KB changes costs
        one republication, not one per change.
        """
        with self._lock:
            self._generation += 1

    def publish(self, key: str, make_bytes: Callable[[], bytes]) -> str:
        """Segment name of ``key``'s payload for the current generation.

        Calls ``make_bytes`` only when the cached publish is missing or
        stale, and only ever caches a blob under the generation that was
        current *before* serialization began — if :meth:`invalidate` lands
        while ``make_bytes`` runs, the (now possibly stale) bytes are
        thrown away and serialization restarts, so a post-mutation caller
        can never be handed pre-mutation state under the new generation.
        The superseded segment is *retired* (still attachable, for tasks
        already in flight against it) and the one retired before that is
        unlinked.
        """
        while True:
            with self._lock:
                generation = self._generation
                cached = self._published.get(key)
                if cached is not None and cached[0] == generation:
                    return cached[1].name
            data = make_bytes()  # outside the lock: serialization can be slow
            with self._lock:
                if self._generation != generation:
                    continue  # state mutated mid-serialization: redo
                current = self._published.get(key)
                if current is not None and current[0] == generation:
                    return current[1].name  # a racing publisher won
                blob = PublishedBlob(data, tag=generation)
                stale = self._retired.pop(key, None)
                if current is not None:
                    self._retired[key] = current[1]
                self._published[key] = (generation, blob)
                self.publishes += 1
            if stale is not None:
                stale.unlink()
            return blob.name

    # -- Lifecycle ---------------------------------------------------------

    def release(self) -> None:
        """Join the warm workers and unlink published payloads at a natural
        quiesce point (e.g. the end of a training run), without retiring
        the pool: the next lease starts fresh and stays warm through its
        own burst.  Owners call this so an *idle* system holds no worker
        processes; :meth:`close` is the terminal spelling of the same
        operation."""
        self.close()

    def close(self) -> None:
        """Shut the executor down and unlink every published segment.

        Idempotent, and the pool remains usable: a later :meth:`executor`
        or :meth:`publish` simply starts fresh.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            blobs = [blob for _generation, blob in self._published.values()]
            blobs.extend(self._retired.values())
            self._published.clear()
            self._retired.clear()
        if executor is not None:
            executor.close()
        for blob in blobs:
            blob.unlink()

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
