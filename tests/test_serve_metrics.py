"""Telemetry spine contract: histograms, tenants, Prometheus.

The metrics layer feeds ``/stats``, ``/metrics`` and the benchmark's
per-layer rows, so its numerical honesty is load-bearing:

* log-bucket percentiles must bound the exact sample quantile from above
  within one bucket's relative resolution (they over- rather than
  under-report);
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
    render_prometheus,
)

from tests.serve_harness import parse_prometheus_text


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


class TestPrometheus:
    COUNTERS = {"requests": 301, "batches": 44}

    def _populated_metrics(self):
        metrics = ServeMetrics()
        rng = random.Random(9)
        for _ in range(300):
            metrics.observe("total", rng.uniform(0.05, 2000.0))
            metrics.observe("evaluate", rng.uniform(0.05, 100.0))
        metrics.observe_total(5.0)
        metrics.tenant_inc('we"ird\\name', "requests", 2)
        return metrics

    def test_render_parse_roundtrip(self):
        text = render_prometheus(
            self._populated_metrics(), self.COUNTERS, {"kbqa_example_gauge": 2.5}
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
        events = {
            labels["event"]: value
            for labels, value in series["kbqa_serve_events_total"]
        }
        assert events == self.COUNTERS

    def test_inf_bucket_equals_count(self):
        metrics = self._populated_metrics()
        text = render_prometheus(metrics)
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
        # the exposition renders the live histograms, not a stale copy
        assert counts == {
            stage: view["count"] for stage, view in metrics.snapshot()["stages"].items()
        }

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

        answerer = AsyncAnswerer(_Target(), ServeConfig())
        snapshot = answerer.snapshot()
        stat_fields = set(dataclasses.asdict(ServeStats()))
        missing = stat_fields - set(snapshot)
        assert not missing, f"snapshot() dropped ServeStats fields: {sorted(missing)}"
