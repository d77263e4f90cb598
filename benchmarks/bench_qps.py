"""QPS load benchmark: serving throughput under concurrency x duplicate rate.

Measures the serving layer the ROADMAP asks for: a closed-loop load
generator (``repro.serve.loadgen``) drives :class:`AsyncAnswerer` over the
qald3 BFQ question pool, sweeping

* **concurrency** — outstanding closed-loop clients,
* **duplicate_rate** — fraction of requests drawn from an 8-question hot
  set (head-heavy traffic), and
* **coalescing on/off** — the A/B that isolates what in-flight coalescing
  buys.

Beyond the closed-loop sweep, :func:`measure_open_loop` drives fixed-rate
Poisson arrivals (open loop: arrivals never wait for responses) and records
p50/p99 response latency per offered rate, and :func:`measure_http_qps`
measures the full socket path — request bytes into a live ``KBQAServer``,
response bytes out — as an end-to-end QPS + latency cell.
:func:`measure_adaptive` is the control-plane proof cell: a 10x open-loop
ramp over a simulated fixed-cost backend, run twice (static knobs vs the
SLO feedback controller), reporting per-step p99 and the spread ratio,
plus a per-tenant fairness sub-cell under ``--quota``-style token buckets.

Every cell uses a *fresh* ``OnlineAnswerer`` with the answer cache disabled,
so duplicate work is real and the measured difference is the serving
layer's coalescing + micro-batching, not the target's own memoization (the
lookup LRUs stay on: entity/concept reuse is part of serving, coalescing
dedups whole evaluations).  The on/off runs of a cell replay the *same*
seeded request stream.

The ``qps`` payload lands in ``BENCH_perf.json`` via the perf harness
(``scripts/bench.sh``); standalone::

    PYTHONPATH=src python -m benchmarks.bench_qps --scale default \
        --merge BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from pathlib import Path

from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA
from repro.serve.async_answerer import normalized_key
from repro.serve.loadgen import (
    LoadSpec,
    OpenLoadSpec,
    RampSpec,
    latency_percentiles,
    run_load_cell,
    run_open_load_cell,
    run_ramp_cell,
)
from repro.suite import build_suite

DEFAULT_CONCURRENCY = [4, 16, 64]
DEFAULT_DUP_RATES = [0.0, 0.5, 0.9]
DEFAULT_OPEN_RATES = [100.0, 400.0, 1600.0]
DEFAULT_WINDOWS_MS = [0.0, 2.0, 5.0]
DEFAULT_RAMP_RATES = [8.0, 16.0, 32.0, 56.0, 80.0]
HIGH_DUP = 0.9


def _fresh_target(system: KBQA) -> OnlineAnswerer:
    """A serving target with the answer cache off (duplicate work is real)."""
    return OnlineAnswerer(
        system.learn_result.kbview,
        system.learn_result.ner,
        system.conceptualizer,
        system.model,
        max_concepts=system.config.max_concepts_online,
        answer_cache_size=0,
    )


def measure_qps(
    system: KBQA,
    questions: list[str],
    *,
    concurrency_levels: list[int] | None = None,
    duplicate_rates: list[float] | None = None,
    requests: int = 512,
    max_batch: int = 16,
    workers: int = 2,
    seed: int = 7,
) -> dict:
    """The ``qps`` section: one sweep cell per (concurrency, dup-rate),
    each with a coalescing-on and a coalescing-off run over the same
    request stream."""
    concurrency_levels = concurrency_levels or DEFAULT_CONCURRENCY
    duplicate_rates = duplicate_rates or DEFAULT_DUP_RATES

    sweep: list[dict] = []
    for concurrency in concurrency_levels:
        for dup_rate in duplicate_rates:
            spec = LoadSpec(
                requests=requests,
                concurrency=concurrency,
                duplicate_rate=dup_rate,
                seed=seed,
            )
            cells = {}
            for coalesce in (True, False):
                cells[coalesce] = run_load_cell(
                    _fresh_target(system),
                    questions,
                    spec,
                    coalesce=coalesce,
                    max_batch=max_batch,
                    workers=workers,
                )
            on, off = cells[True], cells[False]
            sweep.append(
                {
                    "concurrency": concurrency,
                    "duplicate_rate": dup_rate,
                    "qps_coalesce_on": on["qps"],
                    "qps_coalesce_off": off["qps"],
                    "coalesce_speedup": round(on["qps"] / max(off["qps"], 1e-9), 2),
                    "evaluated_on": on["evaluated"],
                    "evaluated_off": off["evaluated"],
                    "coalesced_on": on["coalesced"],
                    "rejected_on": on["rejected"],
                    "rejected_off": off["rejected"],
                }
            )

    # Coalescing dedups across the whole in-flight window; with
    # concurrency <= max_batch one dispatched batch *is* the window and
    # answer_many's own in-batch dedup already covers it, so the headline
    # number is taken where the window spans multiple batches.
    high_dup = [
        c
        for c in sweep
        if c["duplicate_rate"] >= HIGH_DUP and c["concurrency"] > max_batch
    ]
    advantage = (
        round(
            sum(c["coalesce_speedup"] for c in high_dup) / len(high_dup), 2
        )
        if high_dup
        else None
    )
    return {
        "requests_per_cell": requests,
        "question_pool": len(questions),
        "hot_set": LoadSpec().hot_set,
        "max_batch": max_batch,
        "workers": workers,
        "seed": seed,
        "note": (
            "closed-loop load; target answer cache disabled so coalescing "
            "dedups real evaluations; on/off runs replay the same stream; "
            "advantage is averaged over cells with duplicate_rate >= "
            f"{HIGH_DUP} and concurrency > max_batch (where the in-flight "
            "window spans multiple micro-batches)"
        ),
        "sweep": sweep,
        "coalescing_advantage_at_high_dup": advantage,
    }


def measure_open_loop(
    system: KBQA,
    questions: list[str],
    *,
    rates: list[float] | None = None,
    requests: int = 256,
    duplicate_rate: float = 0.5,
    max_batch: int = 16,
    workers: int = 2,
    seed: int = 7,
) -> dict:
    """The ``open_loop`` section: fixed-rate Poisson arrivals, p50/p99 per
    offered rate (the ROADMAP's serving-latency-trajectory item).

    Unlike closed-loop QPS, the offered rate does not adapt to the server;
    a rate past capacity shows up honestly as p99 growth and rejections.
    """
    rates = rates or DEFAULT_OPEN_RATES
    cells = []
    for rate in rates:
        spec = OpenLoadSpec(
            rate_qps=rate,
            requests=requests,
            duplicate_rate=duplicate_rate,
            seed=seed,
        )
        cells.append(
            run_open_load_cell(
                _fresh_target(system),
                questions,
                spec,
                max_batch=max_batch,
                workers=workers,
            )
        )
    return {
        "requests_per_cell": requests,
        "duplicate_rate": duplicate_rate,
        "workers": workers,
        "seed": seed,
        "note": (
            "fixed-rate Poisson arrivals (seeded exponential gaps), open "
            "loop: arrivals never wait for responses; latency percentiles "
            "are over completed requests, rejections counted separately"
        ),
        "cells": cells,
    }


def measure_batch_window(
    system: KBQA,
    questions: list[str],
    *,
    windows_ms: list[float] | None = None,
    rates: list[float] | None = None,
    requests: int = 192,
    duplicate_rate: float = 0.5,
    max_batch: int = 16,
    workers: int = 2,
    seed: int = 7,
) -> dict:
    """The ``batch_window`` section: ``batch_window_ms`` x offered rate.

    The linger knob trades first-request latency for fuller batches: an
    under-filled micro-batch waits ``batch_window_ms`` for more arrivals
    before dispatching.  Each cell replays the same seeded Poisson stream
    at one offered rate under one window and records the latency
    percentiles *and* the realized batching (dispatch count, mean batch
    size), so the trade is visible on both axes — at low rates a window
    only adds latency; near saturation it amortizes dispatch overhead into
    larger batches.  Closes the ROADMAP "batch_window_ms sweep" item.
    """
    windows_ms = windows_ms if windows_ms is not None else DEFAULT_WINDOWS_MS
    rates = rates or DEFAULT_OPEN_RATES
    cells = []
    for window_ms in windows_ms:
        for rate in rates:
            spec = OpenLoadSpec(
                rate_qps=rate,
                requests=requests,
                duplicate_rate=duplicate_rate,
                seed=seed,
            )
            cell = run_open_load_cell(
                _fresh_target(system),
                questions,
                spec,
                max_batch=max_batch,
                workers=workers,
                batch_window_ms=window_ms,
            )
            batches = max(cell.get("batches", 0), 1)
            cells.append(
                {
                    "batch_window_ms": window_ms,
                    "offered_qps": cell["offered_qps"],
                    "completed": cell["completed"],
                    "rejected": cell["rejected"],
                    "completion_qps": cell["completion_qps"],
                    "p50_ms": cell["p50_ms"],
                    "p95_ms": cell["p95_ms"],
                    "p99_ms": cell["p99_ms"],
                    "batches": cell.get("batches", 0),
                    "mean_batch": round(cell.get("evaluated", 0) / batches, 2),
                    "max_batch_seen": cell.get("max_batch_seen", 0),
                }
            )
    return {
        "requests_per_cell": requests,
        "duplicate_rate": duplicate_rate,
        "max_batch": max_batch,
        "workers": workers,
        "seed": seed,
        "note": (
            "open-loop Poisson arrivals per cell; same seeded stream across "
            "windows at a given rate, so latency deltas are the linger's — "
            "mean_batch shows what the window buys in batching"
        ),
        "cells": cells,
    }


def print_batch_window(payload: dict) -> None:
    """Human-readable window x rate table."""
    print(
        f"batch_window sweep ({payload['requests_per_cell']} req/cell, "
        f"dup {payload['duplicate_rate']}, workers {payload['workers']})"
    )
    print(
        f"{'win_ms':>7} {'offered':>8} {'p50ms':>8} {'p99ms':>8} "
        f"{'batches':>8} {'mean_b':>7}"
    )
    for cell in payload["cells"]:
        print(
            f"{cell['batch_window_ms']:>7} {cell['offered_qps']:>8} "
            f"{cell['p50_ms']:>8} {cell['p99_ms']:>8} "
            f"{cell['batches']:>8} {cell['mean_batch']:>7}"
        )


def measure_http_qps(
    system: KBQA,
    questions: list[str],
    *,
    clients: int = 8,
    requests_per_client: int = 24,
    max_batch: int = 16,
    workers: int = 2,
) -> dict:
    """The end-to-end socket cell: closed-loop HTTP clients against a real
    ``KBQAServer`` socket (request bytes in, response bytes out), measuring
    what the in-process cells cannot — HTTP parse, JSON encode, asyncio
    stream write — as delivered QPS and per-request latency percentiles.
    """
    import urllib.request

    from repro.serve import BackgroundServer, ServeConfig

    config = ServeConfig(
        max_batch=max_batch,
        workers=workers,
        max_pending=max(clients * 4, 256),
    )
    latencies_ms: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()

    with BackgroundServer(system, config) as bg:
        url = bg.url + "/answer"

        def client(worker: int) -> None:
            for i in range(requests_per_client):
                question = questions[(worker + i) % len(questions)]
                body = json.dumps({"question": question}).encode("utf-8")
                request = urllib.request.Request(
                    url, data=body, headers={"Content-Type": "application/json"}
                )
                start = time.perf_counter()
                try:
                    with urllib.request.urlopen(request, timeout=30) as resp:
                        resp.read()
                        status = resp.status
                except Exception as error:  # noqa: BLE001 - report, don't crash
                    with lock:
                        failures.append(repr(error))
                    continue
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                with lock:
                    latencies_ms.append(elapsed_ms)
                    if status != 200:
                        failures.append(f"status {status}")

        threads = [
            threading.Thread(target=client, args=(n,), name=f"http-bench-{n}")
            for n in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start

    completed = len(latencies_ms)
    return {
        "clients": clients,
        "requests": clients * requests_per_client,
        "completed": completed,
        "failures": len(failures),
        "wall_s": round(wall_s, 4),
        "qps": round(completed / wall_s, 1) if wall_s > 0 else None,
        "mean_ms": round(statistics.fmean(latencies_ms), 3) if latencies_ms else None,
        **latency_percentiles(latencies_ms),
        "note": (
            "closed-loop urllib clients against a live KBQAServer socket: "
            "end-to-end bytes-in/bytes-out including HTTP parse + JSON"
        ),
    }


class _SimulatedKB:
    """The ramp target: the real answerer plus a fixed per-item service
    cost, emulating corpus-scale per-candidate KB work (the 30M-factoid
    regime the ROADMAP's serving north star names).

    The bench KB answers in tens of microseconds, so no generatable
    offered rate saturates it and a rate ramp exercises nothing.  The
    sleep — per *item*, so batching cannot amortize it away — gives the
    cell a well-defined capacity (``workers / service_s``) independent of
    the runner's CPU, which is what makes the 1x -> 10x ramp a real swing
    from under-load to overload.  Answers are delegated unchanged, so the
    correctness guard still checks the real pipeline.
    """

    def __init__(self, target: OnlineAnswerer, service_ms_per_item: float):
        self._target = target
        self._service_s = service_ms_per_item / 1000.0

    def answer_many(self, questions):
        time.sleep(self._service_s * len(questions))
        return self._target.answer_many(questions)


def _expected_answers(system: KBQA, questions: list[str]) -> dict:
    """Reference answers from a fresh target, keyed by ``normalized_key``.

    The ramp cells count completions that disagree with these as
    ``incorrect`` — the guard that an adaptive run cannot win the latency
    race by corrupting answers."""
    reference = _fresh_target(system)
    results = reference.answer_many(questions)
    return {
        normalized_key(question): tuple(result.values)
        for question, result in zip(questions, results)
    }


def _p99_spread(cell: dict, skip_steps: int = 0) -> float | None:
    """max/min of per-step p99 across the ramp (1.0 == perfectly flat),
    optionally skipping leading warm-up steps."""
    p99s = [
        step["p99_ms"]
        for step in cell["steps"][skip_steps:]
        if step.get("p99_ms") and step["completed"] > 0
    ]
    if not p99s:
        return None
    return round(max(p99s) / max(min(p99s), 1e-9), 2)


def measure_adaptive(
    system: KBQA,
    questions: list[str],
    *,
    rates: list[float] | None = None,
    step_duration_s: float = 2.0,
    warmup_steps: int = 2,
    slo_ms: float = 50.0,
    static_window_ms: float = 8.0,
    service_ms_per_item: float = 25.0,
    max_batch: int = 16,
    workers: int = 1,
    seed: int = 7,
) -> dict:
    """The ``qps.adaptive`` section: SLO controller vs static knobs on an
    open-loop rate ramp, plus a per-tenant fairness sub-cell.

    Both arms replay the *same* seeded Poisson ramp (1x -> 10x, constant
    wall-clock per step) against a :class:`_SimulatedKB` with capacity
    ``workers / service_ms_per_item`` (~40 qps at the defaults), from
    the same starting knobs — a mis-tuned ``batch_window_ms`` linger and a
    deep static admission queue.  The static arm holds them for the whole
    ramp: linger-bound p99 under light load, then queue growth once the
    ramp crosses capacity — a large p99 spread across steps.  The
    adaptive arm gets a p99 SLO: the controller shrinks the linger on
    breach, widens it back under headroom, and re-derives the admission
    depth from the measured service rate, so excess load is shed at the
    door instead of aging in a deep queue and the p99 of served requests
    stays in the SLO band across the whole swing.  The ramp's leading
    ``warmup_steps`` repeats of the base rate give the controller its
    convergence transient; they are reported but excluded from the spread
    for both arms alike.  Every completion is checked against reference
    answers, so a controller that traded correctness for latency would
    show up as ``incorrect`` > 0.

    The fairness sub-cell tags arrivals 90/10 across two tenants under a
    token-bucket quota sized between the two offered rates: the hog must
    see quota rejections while the small tenant rides through untouched.
    """
    rates = rates or DEFAULT_RAMP_RATES
    workers = max(workers, 1)
    expected = _expected_answers(system, questions)
    ramp = [float(rates[0])] * warmup_steps + [float(r) for r in rates]
    spec = RampSpec(
        rates_qps=tuple(ramp),
        step_duration_s=step_duration_s,
        duplicate_rate=0.0,
        seed=seed,
    )
    arms = {}
    for adaptive in (False, True):
        arms[adaptive] = run_ramp_cell(
            _SimulatedKB(_fresh_target(system), service_ms_per_item),
            questions,
            spec,
            adaptive=adaptive,
            slo_ms=slo_ms if adaptive else 0.0,
            max_batch=max_batch,
            workers=workers,
            batch_window_ms=static_window_ms,
            expected=expected,
        )
    static, adaptive = arms[False], arms[True]
    static_spread = _p99_spread(static, skip_steps=warmup_steps)
    adaptive_spread = _p99_spread(adaptive, skip_steps=warmup_steps)

    # fairness: one sustained step at the ramp's peak (past capacity, so
    # the work-conserving bypass cannot absorb the hog), 90/10 tenant mix,
    # quota sized between the two offered rates so only the hog exhausts
    # its bucket while the small tenant never touches its limit
    peak_rate = max(rates)
    fairness_spec = RampSpec(
        rates_qps=(peak_rate,),
        step_duration_s=max(step_duration_s, 3.0),
        duplicate_rate=0.0,
        seed=seed,
        tenants=(("hog", 0.9), ("payg", 0.1)),
    )
    quota_rate = round(peak_rate * 0.2, 1)
    # a fixed moderate box isolates quota + weighted drain semantics from
    # the controller: the hog's uncharged backlog is capped at its share of
    # the box while the small tenant always finds admission headroom
    fairness_cell = run_ramp_cell(
        _SimulatedKB(_fresh_target(system), service_ms_per_item),
        questions,
        fairness_spec,
        quota=f"{quota_rate}:{quota_rate / 2}",
        max_batch=max_batch,
        workers=workers,
        max_pending=32,
        batch_window_ms=static_window_ms,
        expected=expected,
    )
    hog = fairness_cell["tenants"].get("hog", {})
    payg = fairness_cell["tenants"].get("payg", {})
    payg_served = (
        round(payg["completed"] / payg["requests"], 4)
        if payg.get("requests")
        else None
    )
    return {
        "slo_ms": slo_ms,
        "static_window_ms": static_window_ms,
        "rates_qps": [round(r, 1) for r in rates],
        "step_duration_s": step_duration_s,
        "warmup_steps": warmup_steps,
        "service_ms_per_item": service_ms_per_item,
        "capacity_qps": round(workers * 1000.0 / service_ms_per_item, 1),
        "max_batch": max_batch,
        "workers": workers,
        "seed": seed,
        "static": static,
        "adaptive": adaptive,
        "static_p99_spread": static_spread,
        "adaptive_p99_spread": adaptive_spread,
        "flatness_gain": (
            round(static_spread / adaptive_spread, 2)
            if static_spread and adaptive_spread
            else None
        ),
        "incorrect_static": static["incorrect"],
        "incorrect_adaptive": adaptive["incorrect"],
        "controller_adjustments": (adaptive.get("controller") or {}).get(
            "adjustments"
        ),
        "fairness": {
            "offered_qps": round(peak_rate, 1),
            "quota": fairness_cell["quota"],
            "tenants": fairness_cell["tenants"],
            "hog_quota_rejected": hog.get("quota", 0),
            "payg_served_fraction": payg_served,
            "incorrect": fairness_cell["incorrect"],
        },
        "note": (
            "open-loop Poisson ramp against the real answerer plus a "
            "fixed per-item service cost (simulated corpus-scale KB, "
            "capacity = workers/service); both arms replay the same "
            "seeded streams from the same mis-tuned starting knobs; "
            "spread is max/min of per-step p99 excluding the warm-up "
            "steps (1.0 == flat); completions are checked against "
            "reference answers (incorrect must be 0); fairness runs a "
            "90/10 tenant mix under a token-bucket quota sized so only "
            "the hog exhausts its bucket"
        ),
    }


def print_adaptive(payload: dict) -> None:
    """Human-readable adaptive-vs-static ramp tables."""
    print(
        f"adaptive ramp (slo {payload['slo_ms']}ms, start window "
        f"{payload['static_window_ms']}ms, capacity "
        f"{payload['capacity_qps']} qps, {payload['step_duration_s']}s/step, "
        f"workers {payload['workers']})"
    )
    print(
        f"{'offered':>8} {'mode':>9} {'done':>6} {'rej':>5} {'p50ms':>8} "
        f"{'p99ms':>8} {'win_ms':>7} {'maxpend':>8}"
    )
    warm = payload["warmup_steps"]
    for mode in ("static", "adaptive"):
        for index, step in enumerate(payload[mode]["steps"]):
            tag = " (warm)" if index < warm else ""
            print(
                f"{step['offered_qps']:>8} {mode:>9} {step['completed']:>6} "
                f"{step['rejected']:>5} {step['p50_ms']:>8} "
                f"{step['p99_ms']:>8} {step['batch_window_ms']:>7} "
                f"{step['max_pending']:>8}{tag}"
            )
    print(
        f"p99 spread: static {payload['static_p99_spread']}x vs adaptive "
        f"{payload['adaptive_p99_spread']}x (flatness gain "
        f"{payload['flatness_gain']}x); incorrect "
        f"{payload['incorrect_static']}/{payload['incorrect_adaptive']}"
    )
    fairness = payload["fairness"]
    print(
        f"fairness @ {fairness['offered_qps']} qps, quota "
        f"{fairness['quota']}: hog 429s {fairness['hog_quota_rejected']}, "
        f"payg served {fairness['payg_served_fraction']}"
    )


def print_qps(payload: dict) -> None:
    """Human-readable sweep table."""
    print(
        f"qps sweep ({payload['requests_per_cell']} req/cell, "
        f"pool {payload['question_pool']}, hot set {payload['hot_set']}, "
        f"max_batch {payload['max_batch']}, workers {payload['workers']})"
    )
    header = f"{'conc':>5} {'dup':>5} {'qps on':>10} {'qps off':>10} {'x':>6} {'evald on/off':>14}"
    print(header)
    for cell in payload["sweep"]:
        print(
            f"{cell['concurrency']:>5} {cell['duplicate_rate']:>5} "
            f"{cell['qps_coalesce_on']:>10} {cell['qps_coalesce_off']:>10} "
            f"{cell['coalesce_speedup']:>6} "
            f"{str(cell['evaluated_on']) + '/' + str(cell['evaluated_off']):>14}"
        )
    print(
        f"coalescing advantage at dup>={HIGH_DUP}, conc>max_batch: "
        f"{payload['coalescing_advantage_at_high_dup']}x"
    )


def print_open_loop(payload: dict) -> None:
    """Human-readable open-loop latency table."""
    print(
        f"open-loop (Poisson, {payload['requests_per_cell']} req/cell, "
        f"dup {payload['duplicate_rate']}, workers {payload['workers']})"
    )
    print(f"{'offered':>8} {'done':>6} {'rej':>5} {'p50ms':>8} {'p99ms':>8}")
    for cell in payload["cells"]:
        print(
            f"{cell['offered_qps']:>8} {cell['completed']:>6} "
            f"{cell['rejected']:>5} {cell['p50_ms']:>8} {cell['p99_ms']:>8}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="KBQA serving QPS benchmark")
    parser.add_argument("--scale", default="default", choices=["small", "default"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--requests", type=int, default=512)
    parser.add_argument(
        "--concurrency", type=int, nargs="+", default=DEFAULT_CONCURRENCY
    )
    parser.add_argument(
        "--dup-rates", type=float, nargs="+", default=DEFAULT_DUP_RATES
    )
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="evaluation workers (default: 2)",
    )
    parser.add_argument(
        "--open-rates", type=float, nargs="+", default=DEFAULT_OPEN_RATES,
        help="offered Poisson rates for the open-loop latency cells",
    )
    parser.add_argument(
        "--open-requests", type=int, default=256,
        help="arrivals per open-loop cell",
    )
    parser.add_argument(
        "--windows-ms", type=float, nargs="+", default=DEFAULT_WINDOWS_MS,
        help="batch_window_ms values for the linger x rate sweep",
    )
    parser.add_argument(
        "--ramp-rates", type=float, nargs="+", default=DEFAULT_RAMP_RATES,
        help="offered rates for the adaptive-vs-static ramp",
    )
    parser.add_argument(
        "--slo-ms", type=float, default=50.0,
        help="p99 SLO handed to the adaptive arm of the ramp",
    )
    parser.add_argument(
        "--http-clients", type=int, default=8,
        help="closed-loop HTTP clients for the socket cell (default: 8)",
    )
    parser.add_argument(
        "--merge", metavar="PATH", default=None,
        help="merge the qps section into an existing BENCH_perf.json",
    )
    args = parser.parse_args(argv)

    suite = build_suite(args.scale, seed=args.seed)
    system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)
    questions = [q.question for q in suite.benchmark("qald3").bfqs()]
    payload = measure_qps(
        system,
        questions,
        concurrency_levels=args.concurrency,
        duplicate_rates=args.dup_rates,
        requests=args.requests,
        max_batch=args.max_batch,
        workers=args.workers,
        seed=args.seed,
    )
    payload["open_loop"] = measure_open_loop(
        system,
        questions,
        rates=args.open_rates,
        requests=args.open_requests,
        max_batch=args.max_batch,
        workers=args.workers,
        seed=args.seed,
    )
    payload["batch_window"] = measure_batch_window(
        system,
        questions,
        windows_ms=args.windows_ms,
        rates=args.open_rates,
        max_batch=args.max_batch,
        workers=args.workers,
        seed=args.seed,
    )
    payload["http_e2e"] = measure_http_qps(
        system,
        questions,
        clients=args.http_clients,
        max_batch=args.max_batch,
        workers=args.workers,
    )
    payload["adaptive"] = measure_adaptive(
        system,
        questions,
        rates=args.ramp_rates,
        slo_ms=args.slo_ms,
        max_batch=args.max_batch,
        seed=args.seed,
    )
    print_qps(payload)
    print_open_loop(payload["open_loop"])
    print_batch_window(payload["batch_window"])
    print_adaptive(payload["adaptive"])
    http = payload["http_e2e"]
    print(
        f"http e2e: {http['qps']} qps over {http['clients']} clients "
        f"(p50 {http['p50_ms']}ms, p99 {http['p99_ms']}ms, "
        f"{http['failures']} failures)"
    )
    if args.merge:
        path = Path(args.merge)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"bench_qps: cannot merge into {path}: {error}", file=sys.stderr)
            return 1
        doc["qps"] = payload
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"merged qps section into {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
