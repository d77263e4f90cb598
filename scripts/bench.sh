#!/usr/bin/env bash
# Benchmark entry point: perf harness (writes BENCH_perf.json) + timing
# benchmarks.  Usage: scripts/bench.sh [--scale small|default]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

SCALE="${BENCH_SCALE:-default}"
if [[ "${1:-}" == "--scale" && -n "${2:-}" ]]; then
    SCALE="$2"
    shift 2
fi

# Serving QPS sweep (repro.serve async front): closed-loop concurrency levels,
# duplicate rates, and requests per cell; lands as the `qps` section of
# BENCH_perf.json with a coalescing on/off A/B per cell.
QPS_CONCURRENCY="${BENCH_QPS_CONCURRENCY:-4 16 64}"
QPS_DUP_RATES="${BENCH_QPS_DUP_RATES:-0.0 0.5 0.9}"
QPS_REQUESTS="${BENCH_QPS_REQUESTS:-512}"

# batch_window_ms linger values for the window x offered-rate sweep
# (`qps.batch_window` in BENCH_perf.json); cpus is recorded top-level.
WINDOWS_MS="${BENCH_WINDOWS_MS:-0 2 5}"

# Mega-world triple target for the scenario sweep (`scenarios` in
# BENCH_perf.json: streamed compile accounting + recall/p50/p99 for the
# skew / churn / temporal / paraphrase axes).  0 skips the sweep.
SCENARIO_N="${BENCH_SCENARIO_N:-200000}"

# shellcheck disable=SC2086  # QPS_* / WINDOWS_MS are word-split lists
python -m benchmarks.perf_harness --scale "$SCALE" \
    --qps-requests "$QPS_REQUESTS" --qps-concurrency $QPS_CONCURRENCY \
    --qps-dup-rates $QPS_DUP_RATES --windows-ms $WINDOWS_MS \
    --output BENCH_perf.json
if [[ "$SCENARIO_N" -gt 0 ]]; then
    python -m benchmarks.bench_scenarios --triples "$SCENARIO_N" \
        --merge BENCH_perf.json
fi
# perf-marked cases CI excludes: the speed-up floors, and the product vs the
# string-level oracle on all ~82k default-scale gold surfaces.
python -m pytest tests/test_perf_speedups.py tests/test_online_equivalence.py -m perf -q
python -m pytest benchmarks/bench_offline_timecost.py benchmarks/bench_table14_timecost.py -q "$@"
