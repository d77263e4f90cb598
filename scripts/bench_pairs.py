#!/usr/bin/env python3
"""Alternating base/change benchmark pairs (the choosing-metrics §8 protocol).

    python3 scripts/bench_pairs.py --base HEAD --workload inproc_heldout --pairs 10

Exports ``--base`` with ``git archive`` into a temporary directory (honours
``TMPDIR``), then runs ``python3 -m benchmarks.e2e --workload W --seed S
--trace 0`` once per side per pair — base first on even pairs, the working
tree first on odd ones, a fresh seed per pair — and prints, per end-to-end
metric, each side's median and quartiles and how many pairs the change won
(ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int) -> dict[str, float]:
    command = [sys.executable, "-m", "benchmarks.e2e", "--workload", workload]
    command += ["--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values["failed_share"] = result["failed"] / max(result["attempted"], 1)
    return values


def summary(values: list[float]) -> str:
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{mid:11.4g} [{low:.4g}, {high:.4g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs per side)")
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    better["failed_share"] = "lower"

    runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as base_tree:
        archive = subprocess.run(
            ["git", "archive", args.base], cwd=REPO, capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        trees = {"base": Path(base_tree), "change": REPO}
        for pair in range(args.pairs):
            for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                runs[side].append(run_once(trees[side], args.workload, args.seed + pair))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, base={args.base}, median [q1, q3]")
    for name, direction in better.items():
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        print(
            f"{name:20s} base {summary(base)}  change {summary(change)}"
            f"  ({direction} is better; change won {wins}, lost {losses})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
