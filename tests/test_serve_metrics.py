"""Telemetry spine contract: histograms, merging, Prometheus.

The metrics layer feeds ``/stats``, ``/metrics`` and the benchmark's
per-layer rows, so its numerical honesty is load-bearing:

* log-bucket percentiles must bound the exact sample quantile from above
  within one bucket's relative resolution (they over- rather than
  under-report);
* merging histograms/states must equal recording everything into one
  (the multi-process ``/metrics`` aggregation path);
* the Prometheus exposition must round-trip through the validating
  parser with monotonic cumulative buckets;
* ``AsyncAnswerer.snapshot()`` must carry every ``ServeStats`` field —
  the drift guard for counters added in later PRs.
"""

import dataclasses
import random
import statistics

import pytest

from repro.serve.async_answerer import AsyncAnswerer, ServeConfig, ServeStats
from repro.serve.metrics import (
    BUCKET_GROWTH,
    Histogram,
    ServeMetrics,
    merge_states,
    parse_prometheus_text,
    render_prometheus,
)


class TestHistogram:
    def test_percentile_bounds_exact_quantile_within_resolution(self):
        rng = random.Random(11)
        samples = [rng.lognormvariate(1.0, 1.0) for _ in range(4000)]
        hist = Histogram()
        for value in samples:
            hist.record(value)
        exact = statistics.quantiles(samples, n=100, method="inclusive")
        for q, reference in ((50, exact[49]), (95, exact[94]), (99, exact[98])):
            reported = hist.percentile(q)
            # conservative: the bucket's upper bound, so >= the exact value
            # (minus float fuzz) and within one bucket growth factor of it
            assert reported >= reference * 0.999
            assert reported <= reference * BUCKET_GROWTH * 1.001

    def test_empty_and_single_sample(self):
        hist = Histogram()
        assert hist.percentile(99) is None
        assert hist.mean() is None
        hist.record(3.0)
        assert hist.count == 1
        assert hist.percentile(50) >= 3.0
        assert hist.mean() == 3.0

    def test_merge_equals_single_recording(self):
        rng = random.Random(5)
        values = [rng.uniform(0.01, 5000.0) for _ in range(500)]
        one = Histogram()
        left, right = Histogram(), Histogram()
        for i, value in enumerate(values):
            one.record(value)
            (left if i % 2 else right).record(value)
        left.merge(right)
        assert left.counts == one.counts
        assert left.count == one.count
        assert left.sum_ms == pytest.approx(one.sum_ms)

    def test_state_roundtrip_and_bucket_validation(self):
        hist = Histogram()
        for value in (0.1, 1.0, 10.0, 100.0):
            hist.record(value)
        restored = Histogram.from_state(hist.to_state())
        assert restored.counts == hist.counts
        assert restored.count == hist.count
        with pytest.raises(ValueError):
            Histogram.from_state({"counts": [1, 2, 3]})

    def test_overflow_bucket(self):
        hist = Histogram()
        hist.record(10_000_000.0)  # far past the last bound
        assert hist.count == 1
        assert hist.percentile(50) > 80_000.0


class TestServeMetrics:
    def test_tenant_counters(self):
        metrics = ServeMetrics()
        metrics.tenant_inc("gold", "requests")
        metrics.tenant_inc("gold", "requests")
        metrics.tenant_inc("free", "rejected", 3)
        snap = metrics.snapshot()
        assert snap["tenants"]["gold"]["requests"] == 2
        assert snap["tenants"]["free"]["rejected"] == 3

    def test_merge_states_equals_single_instance(self):
        a, b = ServeMetrics(), ServeMetrics()
        one = ServeMetrics()
        rng = random.Random(3)
        for i in range(200):
            value = rng.uniform(0.1, 50.0)
            (a if i % 2 else b).observe_total(value)
            one.observe_total(value)
        a.tenant_inc("t", "requests", 7)
        one.tenant_inc("t", "requests", 7)
        merged = merge_states([a.state(), b.state()])
        single = merge_states([one.state()])
        assert merged["stages"]["total"]["counts"] == single["stages"]["total"]["counts"]
        assert merged["stages"]["total"]["count"] == single["stages"]["total"]["count"]
        assert merged["stages"]["total"]["sum_ms"] == pytest.approx(
            single["stages"]["total"]["sum_ms"]
        )
        assert merged["tenants"] == single["tenants"]

    def test_merge_states_tolerates_empty_histogram_states(self):
        """A replica that dumped before seeing traffic (``{}`` stage states,
        or no stages at all) must merge as a no-op, not crash."""
        live = ServeMetrics()
        for _ in range(10):
            live.observe_total(5.0)
        reference = merge_states([live.state()])
        merged = merge_states(
            [
                {"stages": {"total": {}}},  # empty dump, no counts key content
                {"stages": {"total": {"counts": [], "sum_ms": 0.0, "count": 0}}},
                {},  # no stages at all
                live.state(),
            ]
        )
        assert merged["stages"]["total"] == reference["stages"]["total"]

    def test_merge_states_rejects_layout_mismatch(self):
        """A bucket layout that disagrees with this process's bounds must
        raise (naming the stage), never positionally mis-bin the samples."""
        live = ServeMetrics()
        live.observe_total(5.0)
        alien = {"stages": {"evaluate": {"counts": [3, 4], "sum_ms": 9.0, "count": 7}}}
        with pytest.raises(ValueError, match="evaluate"):
            merge_states([live.state(), alien])
        # samples without buckets are corrupt, not empty: refuse to drop them
        corrupt = {"stages": {"total": {"counts": [], "count": 12}}}
        with pytest.raises(ValueError, match="total"):
            merge_states([corrupt])
        # non-dict histogram state is rejected with the stage named
        with pytest.raises(ValueError, match="queue_wait"):
            merge_states([{"stages": {"queue_wait": [1, 2, 3]}}])

class TestPrometheus:
    def _populated_state(self):
        metrics = ServeMetrics()
        rng = random.Random(9)
        for _ in range(300):
            metrics.observe("total", rng.uniform(0.05, 2000.0))
            metrics.observe("evaluate", rng.uniform(0.05, 100.0))
        metrics.observe_total(5.0)
        metrics.tenant_inc('we"ird\\name', "requests", 2)
        state = metrics.state()
        state["counters"] = {"requests": 301, "batches": 44}
        return state

    def test_render_parse_roundtrip(self):
        text = render_prometheus(
            self._populated_state(), {"kbqa_example_gauge": 2.5}
        )
        series = parse_prometheus_text(text)
        assert "kbqa_stage_latency_ms_bucket" in series
        assert "kbqa_stage_latency_ms_count" in series
        assert "kbqa_serve_events_total" in series
        assert "kbqa_tenant_events_total" in series
        assert series["kbqa_example_gauge"] == [({}, 2.5)]
        # label escaping round-trips
        tenants = {
            labels["tenant"] for labels, _ in series["kbqa_tenant_events_total"]
        }
        assert 'we"ird\\name' in tenants

    def test_inf_bucket_equals_count(self):
        text = render_prometheus(self._populated_state())
        series = parse_prometheus_text(text)
        counts = {
            labels["stage"]: value
            for labels, value in series["kbqa_stage_latency_ms_count"]
        }
        inf = {
            labels["stage"]: value
            for labels, value in series["kbqa_stage_latency_ms_bucket"]
            if labels["le"] == "+Inf"
        }
        assert inf == counts

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("kbqa_thing notanumber\n")
        with pytest.raises(ValueError):
            parse_prometheus_text('kbqa_thing{le="0.1" 3\n')
        with pytest.raises(ValueError):
            parse_prometheus_text("bad name{} 1\n")
        # non-monotonic cumulative buckets are a framing bug, not a style nit
        with pytest.raises(ValueError):
            parse_prometheus_text(
                'x_bucket{le="1"} 5\nx_bucket{le="2"} 3\nx_bucket{le="+Inf"} 5\n'
            )


class TestStatsDrift:
    def test_snapshot_carries_every_serve_stats_field(self):
        """The satellite guard: a counter added to ``ServeStats`` must flow
        into ``snapshot()`` (it is derived via ``dataclasses.asdict``), so
        ``/stats`` and the bench error-class rows can never silently drop
        one again."""

        class _Target:
            def answer_many(self, questions):
                raise AssertionError("never evaluated")

        answerer = AsyncAnswerer(_Target(), ServeConfig(workers=1))
        snapshot = answerer.snapshot()
        stat_fields = set(dataclasses.asdict(ServeStats()))
        missing = stat_fields - set(snapshot)
        assert not missing, f"snapshot() dropped ServeStats fields: {sorted(missing)}"
