"""Tier-1 smoke for the end-to-end benchmark (no timing assertions anywhere).

One ``--smoke`` sweep (small data, one 0.5 s rep per workload, mega at 30k
triples) is shared by the tests that inspect its output.
"""

from __future__ import annotations

import contextlib
import json
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.e2e import RESULTS_DIR, ROOT, report, spec
from benchmarks.e2e.measure import HostSpeed
from benchmarks.e2e.workloads.http_zipf import HttpZipf
from benchmarks.e2e.workloads.mega_disk_mixed import FreshnessModel

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def sweep() -> dict:
    """``run --smoke`` for every workload, two children at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(lambda name: report.run_child(name, 1, None, True), spec.WORKLOADS)
        return {"env": report.environment(), "seed": 1,
                "workloads": dict(zip(spec.WORKLOADS, results))}


def test_every_declared_metric_is_reported_and_nothing_else(sweep):
    for name, result in sweep["workloads"].items():
        assert set(result["end_to_end"]) == set(spec.metrics_for(name)), name
        assert set(result["per_layer"]) == set(spec.LAYER_NAMES), name
        assert result["counts"]["failed"] == 0, name
        assert result["counts"]["attempted"] >= 1, name
        for metric in spec.DRIVER_END_TO_END:  # the driver rejects a metric that reads 0
            assert result["end_to_end"][metric]["value"] > 0, (name, metric)


def test_manifest_matches_the_harness():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest == spec.driver_manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(entry["why"]) <= 200 for entry in manifest["workloads"])
    assert all(0 <= entry["bound"] <= 0.25 for entry in manifest["end_to_end"])
    assert "setup_s" in {entry["name"] for entry in manifest["end_to_end"]}
    assert len(manifest["per_layer"]) <= 128


def test_compare_passes_identical_and_fails_a_doubled_metric(sweep, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(sweep), encoding="utf-8")
    assert report.compare_command([str(base), str(base)]) == 0

    doctored = json.loads(base.read_text(encoding="utf-8"))
    doctored["workloads"]["inproc_unique"]["end_to_end"]["cpu_ms_per_answer"]["value"] *= 2
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(doctored), encoding="utf-8")
    assert report.compare_command([str(base), str(worse)]) == 1


class _StaleTarget:
    """Answers every question with the value the row had at compile time."""

    def __init__(self, compiled: dict[str, str]) -> None:
        self.compiled = compiled

    def answer(self, question: str) -> tuple[str, ...]:
        return (self.compiled[question],)


def test_freshness_model_flags_a_stale_read_after_an_acknowledged_write():
    rows = {"where does ann live?": "oldtown"}
    model, target = FreshnessModel(rows), _StaleTarget(rows)
    question = "where does ann live?"

    allowed = model.begin_read(question)
    assert model.end_read(question, allowed, target.answer(question))  # nothing written yet

    model.begin_write(question, "newtown")
    overlapping = model.begin_read(question)  # issued while the write is in flight
    model.ack_write(question)
    assert model.end_read(question, overlapping, target.answer(question))  # either value is fine

    after = model.begin_read(question)  # issued after the acknowledgement
    assert not model.end_read(question, after, target.answer(question))  # stale: flagged
    assert model.end_read(question, model.begin_read(question), ("newtown",))


@pytest.mark.parametrize("fail", [False, True])
def test_server_child_is_reaped_and_temp_dir_removed(fail):
    child = None
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with HostSpeed() as host, HttpZipf(seed=1, smoke=True, host=host) as workload:
            scratch = workload.scratch()
            workload.setup()
            child = workload.child
            assert scratch.is_dir() and child.poll() is None
            if fail:
                raise RuntimeError("boom")
    assert child is not None and child.poll() is not None
    assert not scratch.exists()
    assert not list(RESULTS_DIR.glob("http_zipf-*"))

