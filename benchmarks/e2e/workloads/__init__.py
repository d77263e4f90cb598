"""The five workloads; each is one class with set-up, a rep and a traced pass."""

from __future__ import annotations

import importlib
import os
import shutil
import tempfile
import time
from pathlib import Path

from benchmarks.e2e import RESULTS_DIR
from benchmarks.e2e.measure import HostSpeed, RepResult, self_peak_rss_mb
from benchmarks.e2e.spans import Tracer


class Workload:
    """Life cycle the harness drives: ``setup`` once, ``rep`` repeatedly,
    ``traced`` once, ``close`` always (it is a context manager).

    ``setup`` returns the per-layer timings of its parts; ``rep`` runs for
    about ``seconds`` and returns counts plus that rep's end-to-end values;
    ``traced`` returns per-layer metrics from one instrumented rep.
    """

    name: str
    rep_is_whole_operation = False  # rep() ignores `seconds` and runs one fixed-size op
    reports_p99 = False  # pool per-request latencies into the serve.latency_p99 diagnostic

    def __init__(self, seed: int, smoke: bool, host: HostSpeed) -> None:
        self.seed = seed
        self.smoke = smoke
        self.host = host  # the process-wide speed sampler every slice is divided by
        self.tracer = Tracer()
        self._scratch: Path | None = None

    def pin(self) -> None:
        """Effective speed wanders per core, so everything a workload times
        stays on one core, where the speed sampler (which follows the main
        thread's affinity) runs too."""
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def setup(self) -> dict[str, float]:
        raise NotImplementedError

    def warm_up(self, seconds: float) -> None:
        """Discarded work before the measured reps (default: one rep)."""
        self.rep(seconds)

    def rep(self, seconds: float) -> RepResult:
        raise NotImplementedError

    def traced(self, seconds: float, untraced: dict[str, float]) -> dict[str, float]:
        """``untraced`` holds the medians of the untraced reps just measured."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process hosting the KBQA system (this one by default)."""
        return self_peak_rss_mb()

    def scratch(self) -> Path:
        """A temp dir inside the checkout (the benchmark writes nowhere else)."""
        if self._scratch is None:
            RESULTS_DIR.mkdir(exist_ok=True)
            self._scratch = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=RESULTS_DIR))
        return self._scratch

    def close(self) -> None:
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None

    def __enter__(self) -> "Workload":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start


_CLASSES = {
    "inproc_unique": ("inproc", "InprocUnique"),
    "inproc_heldout": ("inproc", "InprocHeldout"),
    "http_zipf": ("http_zipf", "HttpZipf"),
    "mega_disk_mixed": ("mega_disk_mixed", "MegaDiskMixed"),
    "offline_train": ("offline_train", "OfflineTrain"),
}


def load(name: str) -> type[Workload]:
    """Import lazily: each workload pulls in a different slice of ``repro``."""
    module, cls = _CLASSES[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), cls)
