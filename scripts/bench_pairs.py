#!/usr/bin/env python3
"""Alternating base/change benchmark pairs (the choosing-metrics §8 protocol).

    python3 scripts/bench_pairs.py --base HEAD --workload http_zipf \\
        --workload inproc_unique --pairs 10

Snapshots ``--base`` (``git archive``) and the working tree (tracked and
untracked, not ignored, files) once.  Every pair then extracts both anew
into two sibling directories of a fresh temporary directory (honours
``TMPDIR``), ``base`` and ``edit``: the two sides run from paths of equal
length, because path length alone moves ``http_zipf``
(``benchmarks/results/pr23-pairs.txt``, A/A runs), and each pair gets new
directories, because placement alone moves ``http_zipf`` by −14 % to
+10 % between otherwise equal runs.  For each ``--workload`` in turn, it
runs ``python3 -m benchmarks.e2e --workload W --seed S --trace 0`` once per
side per pair — base first on even pairs, the working tree first on odd
ones, a fresh seed per pair — and prints, per end-to-end metric, each
side's median and quartiles, how many pairs the change won (ties count for
neither side), and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``improved`` — the change won at least nine tenths of the pairs and its
  median is better by more than the base's own interquartile range;
* ``worse`` — the change's median is worse than the base's by more than the
  bound;
* ``unresolved`` — neither, and one side's interquartile range is wider
  than the bound allows, so "no change" cannot be told from a regression;
* ``within bound`` — otherwise.

So one command yields both the claim on the workload a change targets and
the must-not-move rows on the workloads that bypass it.

``--aa`` runs the ``--base`` archive on both sides (an A/A run): the same
table then shows the spread and the verdicts an unchanged tree produces,
to set beside a claim on the same workload.
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


def working_tree_archive() -> bytes:
    """A tar of the working tree's tracked and untracked-but-not-ignored files."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, capture_output=True, check=True,
    ).stdout.decode("utf-8").split("\0")
    present = "\0".join(name for name in listed if name and (REPO / name).is_file())
    return subprocess.run(
        ["tar", "-c", "--null", "-T", "-"], cwd=REPO, input=present.encode("utf-8"),
        capture_output=True, check=True,
    ).stdout


def run_pair(archives: dict[str, bytes], order, workload: str, seed: int):
    """Extract both sides into a fresh temporary directory and run each once."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as root:
        trees = {"base": Path(root) / "base", "change": Path(root) / "edit"}
        for side, tree in trees.items():
            tree.mkdir()
            subprocess.run(["tar", "-x", "-C", tree], input=archives[side], check=True)
        return {side: run_once(trees[side], workload, seed) for side in order}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def summary(values: list[float]) -> str:
    low, mid, high = quartiles(values)
    return f"{mid:11.4g} [{low:.4g}, {high:.4g}]"


def verdict(
    base: list[float], change: list[float], sign: float, bound: float | None
) -> str:
    """``sign`` is +1 when higher is better; ``bound`` is the relative
    worsening BENCHMARK.json allows (None: a diagnostic without one)."""
    base_low, base_mid, base_high = quartiles(base)
    change_low, change_mid, change_high = quartiles(change)
    gain = sign * (change_mid - base_mid)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if wins >= 0.9 * len(base) and gain > base_high - base_low:
        return "improved"
    if bound is None:
        return "worse" if gain < 0 else "within bound"
    allowed = bound * abs(base_mid)
    if -gain > allowed:
        return "worse"
    if max(base_high - base_low, change_high - change_low) > allowed:
        return "unresolved"
    return "within bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent side")
    parser.add_argument(
        "--workload", required=True, action="append",
        help="workload to pair; repeat for several",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument(
        "--aa", action="store_true",
        help="run the --base archive on both sides instead of the working tree",
    )
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs per side)")
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    better["failed_share"] = "lower"

    base = subprocess.run(
        ["git", "archive", args.base], cwd=REPO, capture_output=True, check=True
    ).stdout
    archives = {"base": base, "change": base if args.aa else working_tree_archive()}
    for workload in args.workload:
        runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            results = run_pair(archives, order, workload, args.seed + pair)
            for side in order:
                runs[side].append(results[side])
            print(f"{workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        report(workload, runs, better, bounds, args)
    return 0


def report(workload, runs, better, bounds, args) -> None:
    change = f"{args.base} (A/A)" if args.aa else "working tree"
    print(f"{workload}: {args.pairs} pairs, base={args.base}, change={change}, median [q1, q3]")
    for name, direction in better.items():
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        print(
            f"{name:20s} base {summary(base)}  change {summary(change)}"
            f"  ({direction} is better; change won {wins}, lost {losses})"
            f"  {verdict(base, change, sign, bounds.get(name))}",
            flush=True,
        )


if __name__ == "__main__":
    sys.exit(main())
