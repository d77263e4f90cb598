"""Slice bookkeeping: host-speed sampling, percentiles, medians over slices,
CPU and RSS readers.

Timed values are reported **at reference speed**.  This box is a shared VM
whose effective CPU speed moves between discrete states (a fixed loop takes
0.69, 0.87, 1.08 or 1.4 ms for seconds at a time, each core on its own; CPU
time moves with wall time, so it is slowdown, not descheduling; see README
"Noise"), which no amount of repetition inside a 30 s run averages out.  A
sampler thread (:class:`HostSpeed`) therefore times a fixed pure-Python
computation every 25 ms for the whole life of the process, and every measured
phase is cut into short **slices**, each divided by the factor the sampler
read while that slice ran.  An end-to-end value is the **median over all the
slices of the run** (a median over ~100 paired values shrugs off the slices
where probe and work disagree; a ratio of sums does not), with the
``(max - min) / median`` of the per-rep medians beside it as its spread.
Best-of-N is deliberately absent (it hides regressions in variance).
"""

from __future__ import annotations

import bisect
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

_CLK_TCK = os.sysconf("SC_CLK_TCK")

# The probe (``HostSpeed._probe``) is a blend - integer arithmetic, reads
# scattered over a table far larger than the caches (each a TLB miss and a
# page walk: cache and memory contention from neighbours; about 0.4 ms of the
# probe's 0.95), string splitting and small dicts - because the
# host's slowdown has more than one dimension: over two noisy hours (20 trains
# and 20 blocks of answering each), arithmetic alone left the steadier train
# times in one hour and the table reads alone in the other, each about twice
# as far off in the hour it lost; the blend was never the best and never the
# worst (README "Noise").
PROBE_ARITHMETIC = 5_000
PROBE_TABLE_BYTES = 32 << 20  # resident in the process that samples
PROBE_READS = 1_000
PROBE_TEXTS = 200
# Median probe time on the box the baseline was recorded on: a constant, so
# speed factors hover around 1 there and normalized numbers read like raw ones.
REFERENCE_PROBE_S = 0.00095
SAMPLE_PERIOD_S = 0.025  # at reference speed; about 4 % of one core

# End-to-end metrics that scale with host speed, and how.
_DURATIONS = ("setup_s", "cpu_ms_per_answer", "latency_p50_ms", "latency_p90_ms", "write_p50_ms",
              "write_p90_ms", "train_s")
_RATES = ("answers_per_s",)


class HostSpeed:
    """Background sampler: ``(perf_counter, probe seconds)`` every 25 ms from a
    thread of this process, so it reads the core(s) this process runs on -
    during set-up and inside one long call (a whole train) as well.  A factor
    above 1 means the host is slower than the reference right now."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.spent: list[float] = []
        self._table = bytearray(b"\x01") * PROBE_TABLE_BYTES
        rng = random.Random(0)
        self._reads = [rng.randrange(PROBE_TABLE_BYTES) for _ in range(PROBE_READS)]
        self._texts = [
            f"what is the population of town number {n} in county {n * 7}?"
            for n in range(PROBE_TEXTS)
        ]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)

    def _probe(self) -> float:
        """Seconds of this thread's CPU the fixed blend costs right now (CPU
        time, so waiting for the GIL or the core is not counted)."""
        table = self._table
        start = time.thread_time()
        total = 0
        for i in range(PROBE_ARITHMETIC):
            total += i * i
        for index in self._reads:
            total += table[index]
        for text in self._texts:
            tokens = text.lower().rstrip("?").split()
            total += len(" ".join(tokens)) + len({token: at for at, token in enumerate(tokens)})
        return time.thread_time() - start

    def _run(self) -> None:
        main_thread = os.getpid()
        while not self._stop.is_set():
            # a thread keeps the affinity it was started with: follow the main
            # thread when the workload pins itself
            os.sched_setaffinity(0, os.sched_getaffinity(main_thread))
            self.spent.append(self._probe())
            self.stamps.append(time.perf_counter())  # after `spent`: never longer than it
            self._stop.wait(SAMPLE_PERIOD_S * self.now())

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def now(self) -> float:
        """The factor over the last few samples (about 0.1 s).  Anything this
        package does *on a schedule* - its own sampling, ``mega_disk_mixed``'s
        writer, ``http_zipf``'s open loop - stretches its intervals by it, so a
        slow host is offered the same load per unit of work done, not more:
        the whole experiment is time-dilated, not only its readings."""
        recent = self.spent[-4:]
        return statistics.fmean(recent) / REFERENCE_PROBE_S if recent else 1.0

    def factor(self, start: float, end: float) -> float:
        """Mean factor of the samples taken in ``[start, end]``; of the sample
        nearest to the window when it is shorter than the sampling period."""
        stamps = self.stamps
        low, high = bisect.bisect_left(stamps, start), bisect.bisect_right(stamps, end)
        if low == high:
            neighbours = [index for index in (low - 1, low) if 0 <= index < len(stamps)]
            if not neighbours:
                return 1.0
            middle = (start + end) / 2
            low = min(neighbours, key=lambda index: abs(stamps[index] - middle))
            high = low + 1
        return statistics.fmean(self.spent[low:high]) / REFERENCE_PROBE_S

    def reference_seconds(self, start: float, end: float) -> float:
        """How long ``[start, end]`` would have taken at reference speed: each
        stretch between two samples divided by the factor read at its end."""
        stamps = self.stamps
        low, high = bisect.bisect_right(stamps, start), bisect.bisect_left(stamps, end)
        total, at = 0.0, start
        for index in range(low, high):
            total += (stamps[index] - at) * REFERENCE_PROBE_S / self.spent[index]
            at = stamps[index]
        return total + (end - at) / self.factor(at, end)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: list[float]) -> float:
    """``(max - min) / median`` — the rep-to-rep noise recorded beside a median."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_cpu_s(pid: int) -> float:
    """utime + stime of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # the command name (field 2) may contain spaces; fields after ')' are fixed
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def child_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of another process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def at_reference_speed(name: str, value: float, factor: float) -> float:
    if name in _DURATIONS:
        return value / factor
    if name in _RATES:
        return value * factor
    return value


def time_slices(start: float, end: float, length_s: float) -> list[tuple[float, float]]:
    """``[start, end]`` cut into windows of ``length_s`` (a shorter tail is dropped)."""
    count = int((end - start) / length_s)
    return [(start + index * length_s, start + (index + 1) * length_s) for index in range(count)]


def clock_slices(
    marks: list[tuple[float, float]], length_s: float
) -> list[tuple[float, float, float]]:
    """``(start, end, CPU seconds)`` between consecutive ``(perf_counter, CPU
    clock)`` readings taken every ``length_s``; the stub a final reading
    closes is dropped."""
    return [
        (start, end, cpu_1 - cpu_0)
        for (start, cpu_0), (end, cpu_1) in zip(marks, marks[1:])
        if end - start >= length_s / 2
    ]


@dataclass
class RepResult:
    """One rep: operation counts, per-slice metric values, raw diagnostics."""

    attempted: int = 0
    failed: int = 0  # raised, refused (non-200 / overload / deadline) or timed out
    wrong: int = 0  # succeeded but value set != gold
    slices: dict[str, list[float]] = field(default_factory=dict)  # end-to-end, at reference speed
    raw: dict[str, list[float]] = field(default_factory=dict)  # the same, as measured
    speed: float = 1.0  # mean host speed factor while this rep ran
    latencies_ms: list[float] = field(default_factory=list)  # as measured, for the p99 diagnostic
    diag: dict[str, float] = field(default_factory=dict)  # per-layer, this rep

    def record(self, name: str, measured: float, factor: float) -> None:
        """One slice's value of an end-to-end metric, measured while the host
        ran at ``factor``."""
        self.raw.setdefault(name, []).append(measured)
        self.slices.setdefault(name, []).append(at_reference_speed(name, measured, factor))

    def record_work(self, answers: int, wall_s: float, cpu_s: float, factor: float) -> None:
        """Rate and CPU cost of a slice that produced ``answers``."""
        if answers:
            self.record("answers_per_s", answers / wall_s, factor)
            self.record("cpu_ms_per_answer", cpu_s * 1000.0 / answers, factor)

    def record_latencies(self, latencies_ms: list[float], factor: float) -> None:
        """Median and 90th percentile of the latencies that ended in one slice."""
        if latencies_ms:
            self.record("latency_p50_ms", percentile(latencies_ms, 50), factor)
            self.record("latency_p90_ms", percentile(latencies_ms, 90), factor)


def summarize(reps: list[RepResult]) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Median over every slice of every rep (at reference speed, with the
    as-measured median beside it), the spread of the per-rep medians, and the
    summed operation counts."""
    metrics: dict[str, dict[str, float]] = {}
    for name in reps[0].slices:
        metrics[name] = {
            "value": statistics.median(value for rep in reps for value in rep.slices[name]),
            "spread": spread([statistics.median(rep.slices[name]) for rep in reps]),
            "raw": statistics.median(value for rep in reps for value in rep.raw[name]),
            "slices": sum(len(rep.slices[name]) for rep in reps),
        }
    counts = {
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "wrong": sum(rep.wrong for rep in reps),
    }
    counts["succeeded"] = counts["attempted"] - counts["failed"]
    attempted = max(counts["attempted"], 1)
    metrics["answer_accuracy"] = {
        "value": (counts["attempted"] - counts["failed"] - counts["wrong"]) / attempted,
        "spread": 0.0,
    }
    metrics["failed_share"] = {"value": counts["failed"] / attempted, "spread": 0.0}
    return metrics, counts
