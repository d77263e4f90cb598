"""What the benchmark declares: workloads, metrics, bounds, predictions.

This is the single source the harness, ``compare`` and the smoke test read;
``BENCHMARK.json`` at the repo root is the driver-facing projection of it
(``driver_manifest`` below builds the expected file and the smoke test
asserts the two agree).

Two views of the end-to-end metrics exist because the driver's contract
wants every workload to report every gated metric and every gated metric to
hold its bound across ten differently seeded runs:

* ``DRIVER_END_TO_END`` — the six metrics every workload reports and this
  box can resolve; these are ``BENCHMARK.json``'s ``end_to_end`` and are what
  ``--trace 0`` prints.
* ``END_TO_END`` — all eleven, each with the workloads that report it and
  its bound; ``compare`` gates on these (same seed, rep spread known, so it
  can answer "unresolved").  ``write_p50_ms``, ``write_p90_ms`` and
  ``train_s`` exist on one workload each and ``latency_p90_ms`` spreads up to
  20 % run to run here, so ``BENCHMARK.json`` lists those four under
  ``per_layer`` (reported, not driver-gated); ``failed_share`` is always 0 at
  baseline, so the driver sees it as the ``failed``/``attempted`` counts of
  the result line.

Bounds are wider than first planned (0.25 where 0.10 / 0.15 was hoped for):
see README "Noise" for the measurements behind that.
"""

from __future__ import annotations

from dataclasses import dataclass

DATA_SEED = 7  # world / corpus / mega data; --seed only drives the request stream
MEASURED_REPS = 5
RUN_SECONDS = 10
COVERAGE_RANGE = (0.9, 1.1)

ALL = ("inproc_unique", "inproc_heldout", "http_zipf", "mega_disk_mixed", "offline_train")

WORKLOADS: dict[str, str] = {
    "inproc_unique": (
        "21k distinct gold questions cycled past every cache: the full tokenize-NER-"
        "concept-template-Eq7-KB path in one thread, serve.* idle"
    ),
    "inproc_heldout": (
        "held-out rewrites make Eq 7 abstain, so core.fallback + nlp.embed dominate; "
        "accuracy guards the confidence gate"
    ),
    "http_zipf": (
        "real kbqa serve child under Zipf traffic over keep-alive HTTP: cache and "
        "coalescing absorb the core, serve.* does the work"
    ),
    "mega_disk_mixed": (
        "322k-triple SQLite store, 4 readers beside 100 writes/s through apply(): the "
        "only kb.disk and only write workload, read-after-write checked"
    ),
    "offline_train": (
        "KBQA.train from scratch plus v3 save/load/verify: expansion scan, extraction, "
        "EM - the paper's offline procedure, idle in every other workload"
    ),
}


@dataclass(frozen=True, slots=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    # Share of the baseline median it may worsen by.  answer_accuracy: reps are
    # time-boxed, so the sample differs a little run to run even at one seed
    # (4th decimal) and across seeds by sampling noise (0.5 % on the 0.68 of
    # inproc_heldout); 0.02 is a few times that.
    bound: float
    workloads: tuple[str, ...]
    meaning: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "process start until the first measured operation is possible"),
    EndToEnd("answers_per_s", "1/s", "higher", 0.25, ALL,
             "succeeded answers per second of closed-loop wall time"),
    EndToEnd("cpu_ms_per_answer", "ms", "lower", 0.25, ALL,
             "CPU (user+sys) of the process hosting the KBQA system per succeeded answer"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25, ALL,
             "per-answer latency, median (open loop: from the scheduled send instant)"),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.25, ALL,
             "per-answer latency, 90th percentile"),
    EndToEnd("write_p50_ms", "ms", "lower", 0.25, ("mega_disk_mixed",),
             "fact supersession through AsyncAnswerer.apply, from due time, median"),
    EndToEnd("write_p90_ms", "ms", "lower", 0.25, ("mega_disk_mixed",),
             "same, 90th percentile"),
    EndToEnd("train_s", "s", "lower", 0.25, ("offline_train",),
             "wall time of one KBQA.train(kb, corpus, conceptualizer)"),
    EndToEnd("answer_accuracy", "share", "higher", 0.02, ALL,
             "answers whose value set equals gold / answers attempted"),
    EndToEnd("failed_share", "share", "lower", 0.0, ALL,
             "operations that raised, were refused or timed out / attempted"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, ALL,
             "peak resident set of the process hosting the KBQA system"),
)

# What BENCHMARK.json gates: reported by every workload, never zero.
DRIVER_END_TO_END: tuple[str, ...] = (
    "setup_s", "answers_per_s", "cpu_ms_per_answer", "latency_p50_ms",
    "answer_accuracy", "peak_rss_mb",
)

# Lowest answer_accuracy `run` accepts (recorded baseline minus sampling noise).
ACCURACY_FLOOR: dict[str, float] = {
    "inproc_unique": 0.97,
    "inproc_heldout": 0.60,
    "http_zipf": 0.97,
    "mega_disk_mixed": 0.999,
    "offline_train": 0.95,
}


@dataclass(frozen=True, slots=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric @ workload this layer metric should move


_U = "inproc_unique"
_H = "inproc_heldout"
_Z = "http_zipf"
_M = "mega_disk_mixed"
_T = "offline_train"

PER_LAYER: tuple[Layer, ...] = (
    # end-to-end metrics the driver does not gate (see module docstring)
    Layer("latency_p90_ms", "ms", "lower", "end-to-end @ every workload"),
    Layer("write_p50_ms", "ms", "lower", f"end-to-end @ {_M}"),
    Layer("write_p90_ms", "ms", "lower", f"end-to-end @ {_M}"),
    Layer("train_s", "s", "lower", f"end-to-end @ {_T}"),
    # core answer path
    Layer("nlp.tokenizer.us_per_answer", "us", "lower", f"cpu_ms_per_answer, answers_per_s @ {_U}"),
    Layer("nlp.tokenizer.calls_per_answer", "count", "lower", f"cpu_ms_per_answer @ {_U}"),
    Layer("nlp.ner.us_per_answer", "us", "lower", f"cpu_ms_per_answer, answers_per_s @ {_U}, {_H}"),
    Layer("nlp.ner.calls_per_answer", "count", "lower", f"cpu_ms_per_answer @ {_U}, {_H}"),
    Layer("taxonomy.conceptualizer.us_per_answer", "us", "lower",
          f"cpu_ms_per_answer, answers_per_s @ {_U}"),
    Layer("taxonomy.conceptualizer.calls_per_answer", "count", "lower", f"cpu_ms_per_answer @ {_U}"),
    Layer("core.template.us_per_answer", "us", "lower", f"cpu_ms_per_answer, answers_per_s @ {_U}"),
    Layer("core.model.us_per_answer", "us", "lower", f"setup_s @ {_U} (warm-up only)"),
    Layer("core.model.ranked_templates", "count", "lower", f"setup_s @ {_U} (warm-up only)"),
    Layer("core.kbview.us_per_answer", "us", "lower", f"answers_per_s @ {_U}, {_M}"),
    Layer("core.kbview.lookups_per_answer", "count", "lower", f"answers_per_s @ {_U}, {_M}"),
    Layer("kb.store.us_per_lookup", "us", "lower", f"answers_per_s @ {_U}"),
    Layer("kb.expansion.us_per_lookup", "us", "lower", f"answers_per_s @ {_U}"),
    Layer("kb.disk.us_per_lookup", "us", "lower", f"latency_p50_ms, answers_per_s @ {_M}"),
    Layer("kb.disk.lookups_per_answer", "count", "lower", f"latency_p50_ms, answers_per_s @ {_M}"),
    Layer("kb.disk.write_us", "us", "lower", f"write_p50_ms @ {_M}"),
    Layer("core.online.self_us_per_answer", "us", "lower", f"answers_per_s @ {_U}"),
    Layer("core.online.answer_cache_hit_share", "share", "higher", f"answers_per_s @ {_Z}"),
    Layer("core.online.ner_cache_hit_share", "share", "higher", f"answers_per_s @ {_Z}"),
    Layer("core.online.concept_cache_hit_share", "share", "higher", f"answers_per_s @ {_Z}"),
    # fallback lane
    Layer("nlp.embed.us_per_answer", "us", "lower", f"answers_per_s @ {_H}"),
    Layer("core.fallback.us_per_answer", "us", "lower", f"answers_per_s @ {_H}"),
    Layer("core.fallback.gate_pass_share", "share", "higher", f"answer_accuracy @ {_H}"),
    Layer("core.fallback.kb_probes_per_answer", "count", "lower", f"answers_per_s @ {_H}"),
    Layer("core.fallback.build_s", "s", "lower", f"setup_s @ {_H}"),
    # serving
    Layer("serve.http.parse_us", "us", "lower", f"cpu_ms_per_answer, answers_per_s @ {_Z}"),
    Layer("serve.http.serialize_us", "us", "lower", f"cpu_ms_per_answer, answers_per_s @ {_Z}"),
    Layer("serve.app.payload_us", "us", "lower", f"latency_p50_ms, answers_per_s @ {_Z}"),
    Layer("serve.app.socket_loop_us", "us", "lower", f"latency_p50_ms, answers_per_s @ {_Z}"),
    Layer("serve.async_answerer.hop_us_per_answer", "us", "lower",
          f"latency_p50_ms, latency_p90_ms @ {_Z}, {_M}"),
    Layer("serve.async_answerer.queue_wait_mean_ms", "ms", "lower",
          f"latency_p50_ms, latency_p90_ms @ {_Z}, {_M}"),
    Layer("serve.async_answerer.batch_linger_mean_ms", "ms", "lower", f"latency_p50_ms @ {_Z}, {_M}"),
    Layer("serve.async_answerer.evaluate_mean_ms", "ms", "lower",
          f"latency_p50_ms, latency_p90_ms @ {_Z}, {_M}"),
    Layer("serve.async_answerer.mean_batch", "count", "higher", f"answers_per_s @ {_Z}"),
    Layer("serve.async_answerer.coalesced_share", "share", "higher", f"answers_per_s @ {_Z}"),
    Layer("serve.async_answerer.max_batch_seen", "count", "higher", f"answers_per_s @ {_Z}"),
    Layer("serve.async_answerer.rejected", "count", "lower", f"failed_share @ {_Z}"),
    Layer("serve.async_answerer.deadline_expired", "count", "lower", f"failed_share @ {_Z}"),
    Layer("serve.async_answerer.degraded", "count", "lower", f"failed_share @ {_Z}"),
    Layer("serve.async_answerer.apply_us", "us", "lower", f"write_p50_ms, write_p90_ms @ {_M}"),
    Layer("serve.async_answerer.invalidations", "count", "lower", f"write_p50_ms @ {_M}"),
    Layer("serve.async_answerer.stale_retries", "count", "lower", f"latency_p90_ms @ {_M}"),
    Layer("serve.async_answerer.stale_delivered", "count", "lower", f"answer_accuracy @ {_M}"),
    Layer("serve.latency_p99_ms", "ms", "lower", "diagnostic, ungated"),
    Layer("serve.latency_p99_samples", "count", "higher", "diagnostic, ungated"),
    Layer("loadgen.lag_p99_ms", "ms", "lower", f"validity of {_Z} numbers"),
    Layer("loadgen.cpu_share", "share", "lower", f"validity of {_Z} numbers (> 0.8: generator-bound)"),
    # offline procedure
    Layer("core.learner.seed_s", "s", "lower", f"train_s @ {_T}"),
    Layer("core.learner.encode_s", "s", "lower", f"train_s @ {_T}"),
    Layer("kb.expansion.scan_s", "s", "lower", f"train_s @ {_T}"),
    Layer("kb.expansion.spo_triples", "count", "lower", f"train_s @ {_T}"),
    Layer("core.extraction.extract_s", "s", "lower", f"train_s @ {_T}"),
    Layer("core.extraction.observations", "count", "higher", f"train_s @ {_T}"),
    Layer("core.em.em_s", "s", "lower", f"train_s @ {_T}"),
    Layer("core.em.iterations", "count", "lower", f"train_s @ {_T}"),
    Layer("core.em.candidates", "count", "lower", f"train_s @ {_T}"),
    Layer("core.decompose.pattern_stats_s", "s", "lower", f"train_s @ {_T}"),
    Layer("kb.expanded_v3.save_s", "s", "lower", f"restart cost @ {_T}"),
    Layer("kb.expanded_v3.artifact_bytes", "count", "lower", f"restart cost @ {_T}"),
    Layer("kb.expanded_v3.load_first_answer_ms", "ms", "lower", f"restart cost @ {_T}"),
    Layer("kb.expanded_v3.verify_s", "s", "lower", f"restart cost @ {_T}"),
    # set-up
    Layer("corpus.mega.compile_s", "s", "lower", f"setup_s @ {_M}"),
    Layer("corpus.mega.triples_per_s", "1/s", "higher", f"setup_s @ {_M}"),
    Layer("eval.scenarios.bind_s", "s", "lower", f"setup_s @ {_M}"),
    Layer("data.suite_build_s", "s", "lower", f"setup_s @ {_U}, {_H}, {_T}"),
    # trust in every row above
    Layer("host.speed_factor", "share", "lower",
          "probe time / reference: what the slices of a timed value were divided by"),
    Layer("trace.coverage", "share", "higher", "attributed time / traced reference time (0.9-1.1)"),
    Layer("trace.overhead_share", "share", "lower", "1 - traced / untraced operation rate"),
)

LAYER_NAMES: tuple[str, ...] = tuple(layer.name for layer in PER_LAYER)
END_TO_END_BY_NAME: dict[str, EndToEnd] = {m.name: m for m in END_TO_END}


def metrics_for(workload: str) -> tuple[str, ...]:
    """Names of the end-to-end metrics ``workload`` reports."""
    return tuple(m.name for m in END_TO_END if workload in m.workloads)


def driver_manifest() -> dict:
    """The ``BENCHMARK.json`` this spec implies (exact keys of the contract)."""
    end_to_end = []
    for name in DRIVER_END_TO_END:
        metric = END_TO_END_BY_NAME[name]
        end_to_end.append(
            {"name": name, "unit": metric.unit, "better": metric.better, "bound": metric.bound}
        )
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": end_to_end,
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }
