"""Perf harness: measures the hot paths and emits ``BENCH_perf.json``.

Tracks the performance trajectory from this PR onward.  One run measures,
on the same machine and the same inputs:

* **expansion** — the Sec 6.2 scan, ID-native vs the string-level baseline,
  plus materialization throughput (expanded triples/second);
* **em** — one full estimation, array-based vs the dict-of-dict reference,
  on the real encoded observations of the offline pipeline;
* **online** — per-question latency (mean/p50) over the qald3 BFQ set,
  before (the string-level oracle of ``tests/oracles/online_reference.py``:
  no table, no cache) and after (the product's table-driven path), and a
  warm pass through the answer cache;
* **offline_train_s** — end-to-end ``KBQA.train`` wall-clock;
* **cold_start** — time-to-first-answer after a restart: ``v3`` (the
  expansion artifact served straight from its mapped index sections) and
  ``disk`` (the KB itself also reopened from the compiled SQLite file — a
  full restart with nothing rebuilt from the source world);
* **qps** — serving throughput through the async front
  (:mod:`repro.serve`): closed-loop load over concurrency x duplicate-rate,
  coalescing on vs off on identical request streams, plus the open-loop
  Poisson latency cells and the end-to-end HTTP socket cell
  (``benchmarks/bench_qps.py``).  The ``qps.batch_window`` section sweeps
  the ``batch_window_ms`` linger knob against offered Poisson rates.

Usage::

    PYTHONPATH=src python -m benchmarks.perf_harness --scale default \
        --output BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.core.em import EMConfig, run_em, run_em_reference
from repro.core.kbview import KBView
from repro.core.learner import LearnerConfig, OfflineLearner
from repro.core.online import OnlineAnswerer
from repro.core.system import KBQA
from repro.data.compile import compile_freebase_like
from repro.kb.expansion import expand_predicates, expand_predicates_baseline
from repro.suite import build_suite
from tests.oracles.online_reference import ReferenceAnswerer


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; CI runners and cgroup-limited
    containers pin the process to a subset, and every scaling claim in this
    payload is bounded by *that* number, so record the affinity mask where
    the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return len(getaffinity(0))
    return os.cpu_count() or 1


def _best_of(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _latencies_ms(answer, questions) -> list[float]:
    out = []
    for question in questions:
        start = time.perf_counter()
        answer(question)
        out.append((time.perf_counter() - start) * 1000.0)
    return out


def _cold_start(suite, system, expanded, questions, repeats) -> dict:
    """Time-to-first-answer after a restart.

    Simulates the restart path: the trained expansion is saved once, then
    each timed run maps the artifact, builds a fresh answerer over it and
    answers one question straight from the mapped index sections (the
    ``v3`` cell).  The ``disk`` cell goes further: it also
    reopens the KB itself from a pre-compiled SQLite file
    (:class:`~repro.kb.disk.DiskTripleStore`), i.e. a restart where
    *nothing* is rebuilt from the source world.  Every cell's first answer
    is asserted equal to the live system's.
    """
    import tempfile

    from repro.kb.disk import DiskTripleStore
    from repro.kb.expansion import ExpandedStore

    store = suite.freebase.store
    question = questions[0]
    reference = system.answer(question)

    def first_answer(kb_store, loaded):
        answerer = OnlineAnswerer(
            KBView(kb_store, loaded),
            system.learn_result.ner,
            system.conceptualizer,
            system.model,
            max_concepts=system.config.max_concepts_online,
        )
        return answerer.answer(question)

    cells: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="kbqa-coldstart-") as tmp:
        v3_path = os.path.join(tmp, "expansion.v3")
        expanded.save(v3_path)

        def run():
            return first_answer(store, ExpandedStore.load(v3_path))

        total_s, result = _best_of(run, repeats)
        assert result == reference, "cold-start v3 answer diverged"
        load_s, _ = _best_of(lambda: ExpandedStore.load(v3_path), repeats)
        cells["v3"] = {
            "artifact_bytes": os.path.getsize(v3_path),
            "load_ms": round(load_s * 1000.0, 3),
            "first_answer_ms": round(total_s * 1000.0, 3),
        }

        db_path = os.path.join(tmp, "freebase.db")
        compile_freebase_like(suite.world, backend="disk", db_path=db_path).store.close()

        def run_disk():
            kb_store = DiskTripleStore(db_path)
            loaded = ExpandedStore.load(v3_path)
            return first_answer(kb_store, loaded)

        total_s, result = _best_of(run_disk, repeats)
        assert result == reference, "cold-start disk answer diverged"
        open_s, _ = _best_of(lambda: DiskTripleStore(db_path), repeats)
        cells["disk"] = {
            "artifact_bytes": os.path.getsize(v3_path) + os.path.getsize(db_path),
            "kb_open_ms": round(open_s * 1000.0, 3),
            "first_answer_ms": round(total_s * 1000.0, 3),
        }

    return {
        **cells,
        "note": (
            "first_answer_ms = artifact load + answerer build + one answered "
            "question, best-of-N; v3 reuses the in-memory KB, disk also "
            "reopens the KB from SQLite (full restart, nothing rebuilt)"
        ),
    }


def measure(
    scale: str,
    seed: int,
    repeats: int,
    qps_requests: int = 512,
    qps_concurrency: list[int] | None = None,
    qps_dup_rates: list[float] | None = None,
    windows_ms: list[float] | None = None,
) -> dict:
    """Run every measurement; returns the BENCH_perf payload."""
    suite = build_suite(scale, seed=seed)
    store = suite.freebase.store

    # -- expansion: ID-native scan vs string-level baseline ------------------
    seeds = [e.node for e in suite.world.of_type("person")]
    seeds += [e.node for e in suite.world.of_type("city")]
    after_s, expanded = _best_of(
        lambda: expand_predicates(store, seeds, max_length=3), repeats
    )
    before_s, baseline = _best_of(
        lambda: expand_predicates_baseline(store, seeds, max_length=3), repeats
    )
    assert len(expanded) == len(baseline), "equivalence violated"
    expansion = {
        "seeds": len(seeds),
        "spo_triples": len(expanded),
        "before_s": round(before_s, 4),
        "after_s": round(after_s, 4),
        "speedup": round(before_s / max(after_s, 1e-9), 2),
        "triples_per_sec": round(len(expanded) / max(after_s, 1e-9)),
    }

    # -- EM: array-based vs dict-of-dict reference ---------------------------
    learner = OfflineLearner(suite.freebase, suite.conceptualizer, LearnerConfig())
    encoded, _templates, _paths = learner.encode_corpus(suite.corpus).encoded
    config = EMConfig(max_iterations=25, tolerance=0.0)
    em_after_s, em_fast = _best_of(lambda: run_em(encoded, config), repeats)
    em_before_s, em_slow = _best_of(lambda: run_em_reference(encoded, config), repeats)
    em = {
        "observations": len(encoded),
        "candidates": encoded.n_candidates,
        "iterations": em_fast.iterations,
        "before_s": round(em_before_s, 4),
        "after_s": round(em_after_s, 4),
        "speedup": round(em_before_s / max(em_after_s, 1e-9), 2),
        "before_iter_ms": round(em_before_s * 1000 / max(em_slow.iterations, 1), 3),
        "after_iter_ms": round(em_after_s * 1000 / max(em_fast.iterations, 1), 3),
    }

    # -- offline train + online serving --------------------------------------
    train_start = time.perf_counter()
    system = KBQA.train(suite.freebase, suite.corpus, suite.conceptualizer)
    offline_train_s = time.perf_counter() - train_start

    questions = [q.question for q in suite.benchmark("qald3").bfqs()]
    legacy = ReferenceAnswerer.shadowing(system.answerer)
    before_ms = _latencies_ms(legacy.answer, questions)
    system.answerer.clear_caches()
    cold_ms = _latencies_ms(system.answer, questions)
    warm_ms = _latencies_ms(system.answer, questions)
    assert system.answer_many(questions) == [system.answer(q) for q in questions]
    online = {
        "questions": len(questions),
        "before_mean_ms": round(statistics.fmean(before_ms), 3),
        "before_p50_ms": round(statistics.median(before_ms), 3),
        "after_mean_ms": round(statistics.fmean(cold_ms), 3),
        "after_p50_ms": round(statistics.median(cold_ms), 3),
        "warm_mean_ms": round(statistics.fmean(warm_ms), 3),
        "warm_p50_ms": round(statistics.median(warm_ms), 3),
        "speedup_cold": round(
            statistics.fmean(before_ms) / max(statistics.fmean(cold_ms), 1e-9), 2
        ),
        "speedup_warm": round(
            statistics.fmean(before_ms) / max(statistics.fmean(warm_ms), 1e-9), 2
        ),
    }

    # -- cold start: time-to-first-answer per persistence format -------------
    cold_start = _cold_start(suite, system, expanded, questions, repeats)

    # -- serving QPS: coalescing A/B under concurrency x duplicate rate ------
    from benchmarks.bench_qps import (
        measure_adaptive,
        measure_batch_window,
        measure_http_qps,
        measure_open_loop,
        measure_qps,
    )

    qps = measure_qps(
        system,
        questions,
        concurrency_levels=qps_concurrency,
        duplicate_rates=qps_dup_rates,
        requests=qps_requests,
        seed=seed,
    )
    qps["open_loop"] = measure_open_loop(
        system, questions, requests=min(qps_requests, 256), seed=seed
    )
    qps["batch_window"] = measure_batch_window(
        system,
        questions,
        windows_ms=windows_ms,
        requests=min(qps_requests, 192),
        seed=seed,
    )
    qps["http_e2e"] = measure_http_qps(system, questions)
    qps["adaptive"] = measure_adaptive(system, questions, seed=seed)

    return {
        "benchmark": "BENCH_perf",
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": _available_cpus(),
        "kb_triples": len(store),
        "offline_train_s": round(offline_train_s, 3),
        "expansion": expansion,
        "em": em,
        "online": online,
        "cold_start": cold_start,
        "qps": qps,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; writes the JSON artifact and prints a summary."""
    parser = argparse.ArgumentParser(description="KBQA perf harness")
    parser.add_argument("--scale", default="default", choices=["small", "default"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--qps-requests", type=int, default=512,
        help="requests per QPS sweep cell (default: 512)",
    )
    parser.add_argument(
        "--qps-concurrency", type=int, nargs="+", default=None,
        help="closed-loop client counts for the QPS sweep (default: 4 16 64)",
    )
    parser.add_argument(
        "--qps-dup-rates", type=float, nargs="+", default=None,
        help="duplicate rates for the QPS sweep (default: 0.0 0.5 0.9)",
    )
    parser.add_argument(
        "--windows-ms", type=float, nargs="+", default=None,
        help="batch_window_ms values for the linger x rate sweep "
             "(default: 0 2 5)",
    )
    parser.add_argument("--output", default="BENCH_perf.json")
    args = parser.parse_args(argv)

    payload = measure(
        args.scale,
        args.seed,
        args.repeats,
        qps_requests=args.qps_requests,
        qps_concurrency=args.qps_concurrency,
        qps_dup_rates=args.qps_dup_rates,
        windows_ms=args.windows_ms,
    )
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    print(
        f"expansion: {payload['expansion']['before_s']}s -> "
        f"{payload['expansion']['after_s']}s "
        f"({payload['expansion']['speedup']}x, "
        f"{payload['expansion']['triples_per_sec']:,} spo/s)"
    )
    print(
        f"em:        {payload['em']['before_s']}s -> {payload['em']['after_s']}s "
        f"({payload['em']['speedup']}x)"
    )
    print(
        f"online:    {payload['online']['before_mean_ms']}ms -> "
        f"{payload['online']['after_mean_ms']}ms cold / "
        f"{payload['online']['warm_mean_ms']}ms warm per question "
        f"({payload['online']['speedup_cold']}x cold, "
        f"{payload['online']['speedup_warm']}x warm)"
    )
    print(f"train:     {payload['offline_train_s']}s offline")
    cold = payload["cold_start"]
    for fmt in ("v3", "disk"):
        print(
            f"cold_start {fmt}: {cold[fmt]['first_answer_ms']}ms to first answer "
            f"({cold[fmt]['artifact_bytes']:,} bytes)"
        )
    for cell in payload["qps"]["sweep"]:
        print(
            f"qps c={cell['concurrency']:<3} dup={cell['duplicate_rate']}: "
            f"{cell['qps_coalesce_on']} on / {cell['qps_coalesce_off']} off "
            f"({cell['coalesce_speedup']}x)"
        )
    print(
        f"coalescing advantage at high dup: "
        f"{payload['qps']['coalescing_advantage_at_high_dup']}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
