"""CLI: the driver's single-workload run, the full sweep, and the diff gate.

    python3 -m benchmarks.e2e --workload NAME --seed N --seconds S --trace 0|1
    python3 -m benchmarks.e2e run [--workload NAME]... [--seed N] [--out FILE] [--smoke]
    python3 -m benchmarks.e2e compare A.json B.json
"""

import time

_STARTED = time.perf_counter()  # before the heavy imports: setup_s counts them

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from benchmarks.e2e import report  # noqa: E402
from benchmarks.e2e.spec import DRIVER_END_TO_END, LAYER_NAMES, RUN_SECONDS, WORKLOADS  # noqa: E402


def _single(argv: list[str]) -> int:
    """One workload in this process; the last stdout line is the result object."""
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help=f"default {RUN_SECONDS}, 0.5 with --smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small data, one short rep")
    parser.add_argument("--out", help="also write the full result (both metric sets) here")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (0.5 if args.smoke else RUN_SECONDS)

    from benchmarks.e2e.measure import HostSpeed

    with HostSpeed() as host:  # before the heavy imports too: setup_s is at reference speed
        from benchmarks.e2e.harness import run_workload

        result = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke, _STARTED, host
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    if args.trace:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": report.unit_of(name)} for name in LAYER_NAMES
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name]["value"], "unit": report.unit_of(name)}
            for name in DRIVER_END_TO_END
        }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["counts"]["attempted"],
                "failed": result["counts"]["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "run":
        return report.run_command(argv[1:])
    if argv and argv[0] == "compare":
        return report.compare_command(argv[1:])
    return _single(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
