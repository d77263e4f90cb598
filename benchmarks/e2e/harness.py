"""Run one workload in this process: set-up, warm-up, measured reps, traced pass.

One process per workload is the rule (a fresh interpreter keeps
``peak_rss_mb`` and every cache free of the previous workload), so this
module is only ever entered once per interpreter: directly by the driver's
``--workload`` invocation, or in a child that ``run`` spawns.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.e2e import RESULTS_DIR, workloads
from benchmarks.e2e.measure import HostSpeed, RepResult, percentile, summarize
from benchmarks.e2e.spec import ACCURACY_FLOOR, LAYER_NAMES, MEASURED_REPS, metrics_for


def _measured_reps(workload: workloads.Workload, seconds: float, smoke: bool) -> list[RepResult]:
    """Time-sliced workloads: a discarded warm-up, then ``MEASURED_REPS``
    reps of equal length.  A workload whose rep is one whole operation of
    fixed size (``offline_train``: a from-scratch train has nothing to warm)
    repeats it until the time budget is spent, twice at least."""
    if workload.rep_is_whole_operation:
        reps: list[RepResult] = []
        started = time.perf_counter()
        while len(reps) < (1 if smoke else 2) or (
            not smoke and time.perf_counter() - started < seconds and len(reps) < MEASURED_REPS
        ):
            reps.append(workload.rep(0.0))
        return reps
    count = 1 if smoke else MEASURED_REPS
    if not smoke:
        workload.warm_up(seconds / count)
    return [workload.rep(seconds / count) for _ in range(count)]


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, started: float, host: HostSpeed
) -> dict:
    """Everything one workload measures, as a JSON-ready dict.

    ``started`` is the ``perf_counter`` reading taken when the process began,
    so ``setup_s`` covers imports too; ``host`` has been sampling since then.
    End-to-end values always come from the untraced reps; the traced pass
    runs after them, in the same process.
    """
    with workloads.load(name)(seed, smoke, host) as workload:
        workload.pin()
        layers = dict.fromkeys(LAYER_NAMES, 0.0)
        layers.update(workload.setup())
        ready = time.perf_counter()

        reps = _measured_reps(workload, seconds, smoke)
        metrics, counts = summarize(reps)
        metrics["setup_s"] = {
            "value": host.reference_seconds(started, ready), "spread": 0.0, "raw": ready - started,
        }
        # read before the traced pass allocates its span list
        metrics["peak_rss_mb"] = {"value": workload.peak_rss_mb(), "spread": 0.0}
        layers["host.speed_factor"] = statistics.median(rep.speed for rep in reps)
        for key in reps[0].diag:
            layers[key] = statistics.median(rep.diag[key] for rep in reps)
        if workload.reports_p99:
            pooled = [ms for rep in reps for ms in rep.latencies_ms]
            layers["serve.latency_p99_ms"] = percentile(pooled, 99)
            layers["serve.latency_p99_samples"] = float(len(pooled))
        # end-to-end metrics the driver does not gate double as per-layer rows
        for key in ("latency_p90_ms", "write_p50_ms", "write_p90_ms", "train_s"):
            if key in metrics:
                layers[key] = metrics[key]["value"]

        if trace:
            rep_seconds = seconds / (1 if smoke else MEASURED_REPS)
            medians = {key: cell["value"] for key, cell in metrics.items()}
            layers.update(workload.traced(rep_seconds, medians))
            RESULTS_DIR.mkdir(exist_ok=True)
            workload.tracer.write_csv(RESULTS_DIR / f"spans-{name}.csv")

    unknown = set(layers) - set(LAYER_NAMES)
    if unknown:
        raise RuntimeError(f"{name} reported undeclared per-layer metrics: {sorted(unknown)}")
    accuracy = metrics["answer_accuracy"]["value"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "reps": len(reps),
        "rep_speeds": [rep.speed for rep in reps],
        "counts": counts,
        "correct": smoke or accuracy >= ACCURACY_FLOOR[name],
        "end_to_end": {key: metrics[key] for key in metrics_for(name)},
        "per_layer": layers if trace else {},
    }
