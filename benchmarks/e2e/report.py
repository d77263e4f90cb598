"""``run`` (sweep every workload, print every metric) and ``compare`` (the gate)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.e2e import RESULTS_DIR, ROOT
from benchmarks.e2e.spec import (
    ACCURACY_FLOOR,
    COVERAGE_RANGE,
    END_TO_END,
    END_TO_END_BY_NAME,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
)

_UNITS = {metric.name: metric.unit for metric in (*PER_LAYER, *END_TO_END)}
CHILD_TIMEOUT_S = 180


def unit_of(name: str) -> str:
    return _UNITS[name]


def environment() -> dict:
    """What a later reader needs before comparing numbers across machines."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def run_child(workload: str, seed: int, seconds: float | None, smoke: bool) -> dict:
    """One workload in a fresh interpreter; returns its full result dict."""
    RESULTS_DIR.mkdir(exist_ok=True)
    handle, out_path = tempfile.mkstemp(prefix=f"run-{workload}-", suffix=".json", dir=RESULTS_DIR)
    os.close(handle)
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--workload", workload, "--seed", str(seed),
        "--trace", "1", "--out", out_path,
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if done.returncode != 0:
            raise RuntimeError(f"{workload} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return json.loads(Path(out_path).read_text(encoding="utf-8"))
    finally:
        os.unlink(out_path)


def verdicts(result: dict) -> list[str]:
    """Why ``run`` should exit non-zero for this workload (empty = fine)."""
    name = result["workload"]
    problems = []
    if result["counts"]["failed"]:
        problems.append(f"{name}: {result['counts']['failed']} failed operations")
    if result["smoke"]:  # too few samples for the accuracy and coverage gates
        return problems
    accuracy = result["end_to_end"]["answer_accuracy"]["value"]
    if accuracy < ACCURACY_FLOOR[name]:
        problems.append(f"{name}: answer_accuracy {accuracy:.4f} < floor {ACCURACY_FLOOR[name]}")
    coverage = result["per_layer"]["trace.coverage"]
    if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
        problems.append(f"{name}: trace.coverage {coverage:.3f} outside {COVERAGE_RANGE}")
    return problems


def print_result(result: dict) -> None:
    name = result["workload"]
    counts = result["counts"]
    print(
        f"# {name}: attempted {counts['attempted']} succeeded {counts['succeeded']} "
        f"failed {counts['failed']} wrong {counts['wrong']} ({result['reps']} reps)"
    )
    for metric, cell in result["end_to_end"].items():
        print(f"{name}  {metric}  {cell['value']:.6g}  {unit_of(metric)}  {cell['spread']:.3f}")
    for metric, value in result["per_layer"].items():
        print(f"{name}  {metric}  {value:.6g}  {unit_of(metric)}  -")


def run_command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e run")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help=f"default {RUN_SECONDS}, 0.5 with --smoke")
    parser.add_argument("--out", help="write every result as one JSON file (compare's input)")
    parser.add_argument("--smoke", action="store_true", help="small data, one short rep each")
    args = parser.parse_args(argv)

    print("workload  name  value  unit  spread")
    results = {}
    problems: list[str] = []
    for workload in args.workload or list(WORKLOADS):
        result = run_child(workload, args.seed, args.seconds, args.smoke)
        results[workload] = result
        print_result(result)
        problems += verdicts(result)
    if args.out:
        document = {"env": environment(), "seed": args.seed, "workloads": results}
        Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True), encoding="utf-8")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def judge(name: str, base: dict, new: dict) -> tuple[str, float]:
    """``ok`` / ``worse`` / ``unresolved`` for one (workload, metric) pair and
    the relative worsening (positive = worse).

    Worse means beyond the metric's bound *and* beyond what the two files'
    own rep-to-rep noise could explain; noise wider than the bound cannot
    certify "unchanged", so that is reported as unresolved.  The noise of a
    run's value is taken as half the ``(max-min)/median`` of its five per-rep
    medians (two standard errors of their median, for a range of about 2.3
    sigma; the value itself pools every slice, so this errs on the wide side).
    """
    metric = END_TO_END_BY_NAME[name]
    reference = abs(base["value"]) or 1.0
    worsening = (new["value"] - base["value"]) / reference
    if metric.better == "higher":
        worsening = -worsening
    noise = max(base["spread"], new["spread"]) / 2
    if worsening > metric.bound:
        return ("worse" if worsening > noise else "unresolved"), worsening
    if metric.bound and noise > metric.bound:
        return "unresolved", worsening
    return "ok", worsening


def compare_command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base = json.loads(Path(args.base).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    if base["env"]["cpus"] != new["env"]["cpus"]:
        print(f"note: cpus differ ({base['env']['cpus']} vs {new['env']['cpus']})", file=sys.stderr)

    print("workload  name  base  new  change  bound  verdict")
    worse = 0
    for workload, base_result in base["workloads"].items():
        new_result = new["workloads"].get(workload)
        if new_result is None:
            continue
        for name, base_cell in base_result["end_to_end"].items():
            verdict, worsening = judge(name, base_cell, new_result["end_to_end"][name])
            worse += verdict == "worse"
            print(
                f"{workload}  {name}  {base_cell['value']:.6g}  "
                f"{new_result['end_to_end'][name]['value']:.6g}  {worsening:+.3f}  "
                f"{END_TO_END_BY_NAME[name].bound}  {verdict}"
            )
    return 1 if worse else 0
