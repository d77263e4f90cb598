"""Load generators for the serving layer: closed-loop QPS and open-loop latency.

Drives an :class:`~repro.serve.async_answerer.AsyncAnswerer` in-process with
one deterministic request stream.  The stream models head-heavy question
traffic with one knob, ``duplicate_rate``: each request is, with that
probability, drawn from a small *hot set*, otherwise the next question from
the full pool.  Sweeping ``duplicate_rate`` x ``concurrency`` with
coalescing on/off is exactly the ``qps`` section of ``BENCH_perf.json``
(see ``benchmarks/bench_qps.py``).

Two arrival disciplines:

* **closed-loop** (:func:`run_load`) — ``concurrency`` client coroutines,
  each issuing its next request only after the previous one resolves;
  measured QPS is throughput under that many outstanding requests.
* **open-loop** (:func:`run_open_load`) — fixed-rate Poisson arrivals
  (seeded exponential inter-arrival gaps) that do *not* wait for responses,
  which is how real traffic behaves; the deliverable is the p50/p99
  response-latency distribution at an offered rate, the ROADMAP's "serving
  latency trajectory" item.

Admission rejections are counted, never retried — a rejected request is a
served (negative) response from the client's point of view.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass

from repro.serve.async_answerer import (
    AsyncAnswerer,
    DeadlineExceeded,
    OverloadedError,
    normalized_key,
)
from repro.serve.control import QuotaExceeded


def _error_classes(
    rejected: int, deadline: int, failed: int, snapshot: dict, quota: int = 0
) -> dict:
    """Per-class error/degradation counters for one load cell.

    Client-observed classes (rejections, quota denials, deadline expiries,
    hard failures) plus the answerer's own retry/degradation counters —
    the row the perf harness publishes so a run can show *which* failure
    mode fired, not just a pass/fail.
    """
    return {
        "rejected": rejected,
        "quota": quota,
        "deadline": deadline,
        "failed": failed,
        "stale_retries": snapshot["stale_retries"],
        "degraded": snapshot["degraded"],
    }


@dataclass(frozen=True, slots=True)
class LoadSpec:
    """One load-generation cell.

    ``requests`` total submissions, issued by ``concurrency`` closed-loop
    clients; ``duplicate_rate`` in [0, 1] sends that fraction of requests to
    the first ``hot_set`` questions of the pool; ``seed`` fixes the stream.
    """

    requests: int = 512
    concurrency: int = 16
    duplicate_rate: float = 0.0
    hot_set: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate must be in [0, 1], got {self.duplicate_rate}")
        if self.hot_set < 1:
            raise ValueError(f"hot_set must be >= 1, got {self.hot_set}")


def build_request_stream(questions: list[str], spec: LoadSpec) -> list[str]:
    """The deterministic request sequence for one cell (same seed -> same
    stream, so coalescing on/off runs see identical traffic)."""
    if not questions:
        raise ValueError("question pool is empty")
    rng = random.Random(spec.seed)
    hot = questions[: spec.hot_set]
    stream: list[str] = []
    cold_cursor = 0
    for _ in range(spec.requests):
        if rng.random() < spec.duplicate_rate:
            stream.append(hot[rng.randrange(len(hot))])
        else:
            stream.append(questions[cold_cursor % len(questions)])
            cold_cursor += 1
    return stream


def build_zipf_stream(
    questions: list[str],
    requests: int,
    *,
    exponent: float = 1.1,
    seed: int = 7,
) -> list[str]:
    """A Zipf-skewed request stream: question at rank r drawn ~ 1/r^exponent.

    The scenario harness's hot-set axis: unlike the two-tier
    ``duplicate_rate`` model, the whole pool stays reachable but the head
    dominates — rank 1 of a 1.1-exponent draw over 10k questions carries
    ~7% of traffic on its own.  Deterministic for a given (pool, requests,
    exponent, seed).
    """
    if not questions:
        raise ValueError("question pool is empty")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if exponent <= 0:
        raise ValueError(f"exponent must be > 0, got {exponent}")
    rng = random.Random(seed)
    weights = [1.0 / (rank**exponent) for rank in range(1, len(questions) + 1)]
    return rng.choices(questions, weights=weights, k=requests)


async def run_load(
    answerer: AsyncAnswerer,
    stream: list[str],
    concurrency: int,
    *,
    deadline_s: float | None = None,
) -> dict:
    """Run one closed-loop load cell against a started answerer.

    Returns wall-clock QPS plus outcome counters, per-class error counts
    and the answerer's own serving counters (coalesced / batches /
    evaluated), which is what the benchmark's coalescing A/B keys off.
    ``deadline_s`` attaches a per-request deadline; expiries are counted,
    never retried (like rejections, an expiry is a served negative).
    """
    cursor = 0
    answered = 0
    no_answer = 0
    rejected = 0
    quota_denied = 0
    deadline_expired = 0
    failed = 0

    async def client() -> None:
        nonlocal cursor, answered, no_answer, rejected, quota_denied
        nonlocal deadline_expired, failed
        while True:
            if cursor >= len(stream):
                return
            question = stream[cursor]
            cursor += 1
            try:
                result = await answerer.answer(question, deadline_s=deadline_s)
            except QuotaExceeded:
                quota_denied += 1
                continue
            except OverloadedError:
                rejected += 1
                continue
            except DeadlineExceeded:
                deadline_expired += 1
                continue
            except Exception:
                failed += 1
                continue
            if result.answered:
                answered += 1
            else:
                no_answer += 1

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    wall_s = time.perf_counter() - start

    completed = answered + no_answer
    snapshot = answerer.snapshot()
    return {
        "requests": len(stream),
        "completed": completed,
        "answered": answered,
        "no_answer": no_answer,
        "rejected": rejected,
        "wall_s": round(wall_s, 4),
        "qps": round(completed / wall_s, 1) if wall_s > 0 else float("inf"),
        "coalesced": snapshot["coalesced"],
        "batches": snapshot["batches"],
        "evaluated": snapshot["evaluated"],
        "max_batch_seen": snapshot["max_batch_seen"],
        "error_classes": _error_classes(
            rejected, deadline_expired, failed, snapshot, quota_denied
        ),
    }


def run_load_cell(
    target,
    questions: list[str],
    spec: LoadSpec,
    *,
    coalesce: bool = True,
    max_batch: int = 16,
    workers: int = 2,
) -> dict:
    """Synchronous one-call cell: fresh answerer, fresh loop, one stream.

    ``target`` is anything with ``answer_many`` (typically an
    ``OnlineAnswerer`` with the answer cache disabled, so the measured
    effect is the *serving layer's* coalescing, not the target's cache).
    """
    from repro.serve.async_answerer import ServeConfig

    stream = build_request_stream(questions, spec)
    config = ServeConfig(
        max_batch=max_batch,
        max_pending=max(spec.concurrency * 2, 64),
        workers=workers,
        coalesce=coalesce,
    )

    async def _run() -> dict:
        async with AsyncAnswerer(target, config) as answerer:
            return await run_load(answerer, stream, spec.concurrency)

    result = asyncio.run(_run())
    result["coalesce"] = coalesce
    result["concurrency"] = spec.concurrency
    result["duplicate_rate"] = spec.duplicate_rate
    result["workers"] = config.workers
    return result


# -- Open-loop (fixed-rate Poisson) ----------------------------------------


@dataclass(frozen=True, slots=True)
class OpenLoadSpec:
    """One open-loop latency cell.

    ``rate_qps`` is the offered Poisson arrival rate; ``requests`` arrivals
    are generated with seeded exponential gaps, sharing the closed-loop
    stream model for question selection (``duplicate_rate`` / ``hot_set``).
    """

    rate_qps: float = 200.0
    requests: int = 256
    duplicate_rate: float = 0.5
    hot_set: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError(f"rate_qps must be > 0, got {self.rate_qps}")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate must be in [0, 1], got {self.duplicate_rate}")
        if self.hot_set < 1:
            raise ValueError(f"hot_set must be >= 1, got {self.hot_set}")


def latency_percentiles(latencies_ms: list[float]) -> dict:
    """p50/p95/p99/max of a latency sample (safe for 0- and 1-element
    samples, which ``statistics.quantiles`` rejects)."""
    if not latencies_ms:
        return {"p50_ms": None, "p95_ms": None, "p99_ms": None, "max_ms": None}
    ordered = sorted(latencies_ms)
    if len(ordered) == 1:
        only = round(ordered[0], 3)
        return {"p50_ms": only, "p95_ms": only, "p99_ms": only, "max_ms": only}
    quantile = statistics.quantiles(ordered, n=100, method="inclusive")
    return {
        "p50_ms": round(quantile[49], 3),
        "p95_ms": round(quantile[94], 3),
        "p99_ms": round(quantile[98], 3),
        "max_ms": round(ordered[-1], 3),
    }


async def run_open_load(
    answerer: AsyncAnswerer,
    stream: list[str],
    rate_qps: float,
    *,
    seed: int = 7,
    deadline_s: float | None = None,
    expected: dict | None = None,
) -> dict:
    """Fire the stream at a Poisson ``rate_qps`` against a started answerer.

    Arrivals never wait for earlier responses (open loop): each request is
    spawned as its own task after a seeded exponential gap.  Returns the
    response-latency percentiles over completed requests, the achieved
    arrival/completion rates, and per-class error counts — under overload
    the honest signal is p99 latency growth plus 503s (and, with
    ``deadline_s`` set, deadline expiries), not a throughput number.
    ``expected`` maps ``normalized_key(question)`` to the reference answer
    value tuple, exactly as in :func:`run_ramp_load`: completions that
    disagree count ``incorrect`` (the scenario harness's recall input).
    """
    rng = random.Random(seed)
    latencies_ms: list[float] = []
    rejected = 0
    quota_denied = 0
    answered = 0
    deadline_expired = 0
    failed = 0
    incorrect = 0
    checked = 0

    async def one(question: str) -> None:
        nonlocal rejected, quota_denied, answered, deadline_expired, failed
        nonlocal incorrect, checked
        start = time.perf_counter()
        try:
            result = await answerer.answer(question, deadline_s=deadline_s)
        except QuotaExceeded:
            quota_denied += 1
            return
        except OverloadedError:
            rejected += 1
            return
        except DeadlineExceeded:
            deadline_expired += 1
            return
        except Exception:
            failed += 1
            return
        latencies_ms.append((time.perf_counter() - start) * 1000.0)
        if result.answered:
            answered += 1
        if expected is not None:
            reference = expected.get(normalized_key(question))
            if reference is not None:
                checked += 1
                if tuple(result.values) != tuple(reference):
                    incorrect += 1

    start = time.perf_counter()
    tasks = []
    for question in stream:
        tasks.append(asyncio.ensure_future(one(question)))
        await asyncio.sleep(rng.expovariate(rate_qps))
    arrival_wall_s = time.perf_counter() - start
    await asyncio.gather(*tasks)
    wall_s = time.perf_counter() - start

    completed = len(latencies_ms)
    snapshot = answerer.snapshot()
    return {
        "error_classes": _error_classes(
            rejected, deadline_expired, failed, snapshot, quota_denied
        ),
        "requests": len(stream),
        "completed": completed,
        "answered": answered,
        "rejected": rejected,
        "checked": checked,
        "incorrect": incorrect,
        "offered_qps": round(rate_qps, 1),
        "achieved_arrival_qps": (
            round(len(stream) / arrival_wall_s, 1) if arrival_wall_s > 0 else None
        ),
        "completion_qps": round(completed / wall_s, 1) if wall_s > 0 else None,
        "wall_s": round(wall_s, 4),
        **latency_percentiles(latencies_ms),
    }


def run_open_load_cell(
    target,
    questions: list[str],
    spec: OpenLoadSpec,
    *,
    coalesce: bool = True,
    max_batch: int = 16,
    workers: int = 2,
    max_pending: int = 256,
    batch_window_ms: float = 0.0,
) -> dict:
    """Synchronous one-call open-loop cell (fresh answerer, fresh loop).

    ``batch_window_ms`` is the dispatch linger: an under-filled micro-batch
    waits that long for more arrivals before dispatching — the
    latency/throughput trade the ``batch_window`` sweep in
    ``benchmarks/bench_qps.py`` charts per offered rate.
    """
    from repro.serve.async_answerer import ServeConfig

    stream = build_request_stream(
        questions,
        LoadSpec(
            requests=spec.requests,
            concurrency=1,  # arrival discipline replaces closed-loop clients
            duplicate_rate=spec.duplicate_rate,
            hot_set=spec.hot_set,
            seed=spec.seed,
        ),
    )
    config = ServeConfig(
        max_batch=max_batch,
        max_pending=max_pending,
        workers=workers,
        coalesce=coalesce,
        batch_window_ms=batch_window_ms,
    )

    async def _run() -> dict:
        async with AsyncAnswerer(target, config) as answerer:
            result = await run_open_load(
                answerer, stream, spec.rate_qps, seed=spec.seed
            )
            snapshot = answerer.snapshot()
            result["batches"] = snapshot["batches"]
            result["evaluated"] = snapshot["evaluated"]
            result["max_batch_seen"] = snapshot["max_batch_seen"]
            return result

    result = asyncio.run(_run())
    result["duplicate_rate"] = spec.duplicate_rate
    result["coalesce"] = coalesce
    result["workers"] = config.workers
    result["batch_window_ms"] = batch_window_ms
    return result


# -- Open-loop ramp (rate sweep + per-tenant tagging) -----------------------


@dataclass(frozen=True, slots=True)
class RampSpec:
    """An open-loop rate ramp: one answerer, several offered-rate steps.

    ``rates_qps`` is the ramp profile (e.g. 1x -> 10x of a base rate); each
    step fires ``requests_per_step`` Poisson arrivals using the shared
    stream model with a per-step derived seed — or, when
    ``step_duration_s`` is set, ``rate * duration`` arrivals so every step
    covers the same wall-clock span regardless of rate (queues at
    overloaded steps get the time they need to actually build).  ``tenants`` optionally tags
    each request with a client name drawn by traffic share —
    ``(("hog", 0.9), ("payg", 0.1))`` sends ~90% of arrivals as ``hog`` —
    which is what the fairness bench keys off.  The answerer persists
    across steps, so an adaptive controller's state (window, batch,
    admission target) carries through the ramp exactly as it would on a
    live server.
    """

    rates_qps: tuple[float, ...] = (50.0, 100.0, 200.0, 400.0, 500.0)
    requests_per_step: int = 128
    step_duration_s: float | None = None
    duplicate_rate: float = 0.5
    hot_set: int = 8
    seed: int = 7
    tenants: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.rates_qps:
            raise ValueError("rates_qps must name at least one step")
        if any(rate <= 0 for rate in self.rates_qps):
            raise ValueError(f"every ramp rate must be > 0, got {self.rates_qps}")
        if self.requests_per_step < 1:
            raise ValueError(
                f"requests_per_step must be >= 1, got {self.requests_per_step}"
            )
        if self.step_duration_s is not None and self.step_duration_s <= 0:
            raise ValueError(
                f"step_duration_s must be > 0, got {self.step_duration_s}"
            )
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate must be in [0, 1], got {self.duplicate_rate}")
        if self.hot_set < 1:
            raise ValueError(f"hot_set must be >= 1, got {self.hot_set}")
        for name, share in self.tenants:
            if not name:
                raise ValueError("tenant names must be non-empty")
            if share <= 0:
                raise ValueError(f"tenant share must be > 0, got {name}={share}")


def _pick_tenant(
    rng: random.Random, tenants: tuple[tuple[str, float], ...]
) -> str | None:
    """Draw one tenant name by share (None when the ramp is untagged)."""
    if not tenants:
        return None
    roll = rng.random() * sum(share for _, share in tenants)
    cumulative = 0.0
    for name, share in tenants:
        cumulative += share
        if roll < cumulative:
            return name
    return tenants[-1][0]


def _blank_tenant_row() -> dict:
    return {
        "requests": 0,
        "completed": 0,
        "rejected": 0,
        "quota": 0,
        "deadline": 0,
        "failed": 0,
        "incorrect": 0,
    }


async def run_ramp_load(
    answerer: AsyncAnswerer,
    questions: list[str],
    spec: RampSpec,
    *,
    expected: dict | None = None,
    deadline_s: float | None = None,
) -> dict:
    """Drive the ramp against one started answerer, step by step.

    Per step: the offered rate, client-observed outcome counts, latency
    percentiles over completions, and the answerer's live knob values at
    step end (the adaptive A/B reads the window trajectory off these).
    ``expected`` maps ``normalized_key(question)`` to the reference answer
    value tuple; completions that disagree are counted ``incorrect`` — the
    zero-incorrect guard that keeps the controller honest (an adaptive run
    that wins the latency race by corrupting answers loses the cell).
    Aggregates per-tenant outcome counts across all steps.
    """
    steps: list[dict] = []
    tenants: dict[str, dict] = {}
    total_incorrect = 0

    for step_index, rate_qps in enumerate(spec.rates_qps):
        step_seed = spec.seed + 1000 * step_index
        if spec.step_duration_s is not None:
            step_requests = max(1, round(rate_qps * spec.step_duration_s))
        else:
            step_requests = spec.requests_per_step
        stream = build_request_stream(
            questions,
            LoadSpec(
                requests=step_requests,
                concurrency=1,  # arrival discipline replaces closed-loop clients
                duplicate_rate=spec.duplicate_rate,
                hot_set=spec.hot_set,
                seed=step_seed,
            ),
        )
        rng = random.Random(step_seed + 1)
        latencies_ms: list[float] = []
        counts = {
            "completed": 0,
            "answered": 0,
            "rejected": 0,
            "quota": 0,
            "deadline": 0,
            "failed": 0,
            "incorrect": 0,
        }

        def row(tenant: str | None) -> dict:
            key = tenant or "anonymous"
            if key not in tenants:
                tenants[key] = _blank_tenant_row()
            return tenants[key]

        async def one(question: str, tenant: str | None) -> None:
            tenant_row = row(tenant)
            tenant_row["requests"] += 1
            start = time.perf_counter()
            try:
                result = await answerer.answer(
                    question, deadline_s=deadline_s, tenant=tenant
                )
            except QuotaExceeded:
                counts["quota"] += 1
                tenant_row["quota"] += 1
                return
            except OverloadedError:
                counts["rejected"] += 1
                tenant_row["rejected"] += 1
                return
            except DeadlineExceeded:
                counts["deadline"] += 1
                tenant_row["deadline"] += 1
                return
            except Exception:
                counts["failed"] += 1
                tenant_row["failed"] += 1
                return
            latencies_ms.append((time.perf_counter() - start) * 1000.0)
            counts["completed"] += 1
            tenant_row["completed"] += 1
            if result.answered:
                counts["answered"] += 1
            if expected is not None:
                reference = expected.get(normalized_key(question))
                if reference is not None and tuple(result.values) != tuple(reference):
                    counts["incorrect"] += 1
                    tenant_row["incorrect"] += 1

        tasks = []
        for question in stream:
            tenant = _pick_tenant(rng, spec.tenants)
            tasks.append(asyncio.ensure_future(one(question, tenant)))
            await asyncio.sleep(rng.expovariate(rate_qps))
        await asyncio.gather(*tasks)

        total_incorrect += counts["incorrect"]
        steps.append(
            {
                "offered_qps": round(rate_qps, 1),
                "requests": len(stream),
                **counts,
                **latency_percentiles(latencies_ms),
                # the live knobs as the controller left them at step end
                "batch_window_ms": round(answerer.batch_window_ms, 3),
                "max_batch": answerer.max_batch,
                "max_pending": answerer.max_pending,
            }
        )

    return {
        "steps": steps,
        "tenants": tenants,
        "incorrect": total_incorrect,
    }


def run_ramp_cell(
    target,
    questions: list[str],
    spec: RampSpec,
    *,
    adaptive: bool = False,
    slo_ms: float = 0.0,
    quota: str | None = None,
    coalesce: bool = True,
    max_batch: int = 16,
    workers: int = 2,
    max_pending: int = 256,
    batch_window_ms: float = 0.0,
    expected: dict | None = None,
) -> dict:
    """Synchronous one-call ramp cell (fresh answerer + loop, whole ramp).

    The adaptive-vs-static A/B in ``benchmarks/bench_qps.py`` calls this
    twice with identical traffic: once with ``adaptive=False`` (the static
    ``batch_window_ms`` holds for the whole ramp) and once with
    ``adaptive=True`` + an SLO (the controller re-tunes the same starting
    knobs step by step).  ``quota`` enables per-tenant admission for the
    fairness cell.
    """
    from repro.serve.async_answerer import ServeConfig

    config = ServeConfig(
        max_batch=max_batch,
        max_pending=max_pending,
        workers=workers,
        coalesce=coalesce,
        batch_window_ms=batch_window_ms,
        slo_ms=slo_ms,
        adaptive=adaptive,
        quota=quota,
    )

    async def _run() -> dict:
        async with AsyncAnswerer(target, config) as answerer:
            result = await run_ramp_load(answerer, questions, spec, expected=expected)
            snapshot = answerer.snapshot()
            result["error_classes"] = _error_classes(
                snapshot["rejected"],
                snapshot["deadline_expired"],
                0,
                snapshot,
                snapshot["quota_rejected"],
            )
            result["controller"] = answerer.controller_snapshot()
            return result

    result = asyncio.run(_run())
    result["adaptive"] = adaptive
    result["slo_ms"] = slo_ms
    result["quota"] = quota
    result["coalesce"] = coalesce
    result["workers"] = config.workers
    result["start_batch_window_ms"] = batch_window_ms
    return result
