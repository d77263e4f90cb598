"""Control-plane contract: quotas, fair queueing, the SLO feedback law.

Unit layer: the controller's ``tick`` is synchronous and clock-injectable,
so the AIMD law (shrink on breach, widen under headroom, hold in the dead
band, idle on thin samples) is tested deterministically against a knob
stub + a real :class:`ServeMetrics` fed with explicit timestamps — no
sleeps, no load generation.

Integration layer: a live ``AsyncAnswerer`` with ``adaptive=True`` /
``quota=...`` proves the wiring — the controller task actually moves the
live knobs, and quotas actually 429 a flooding tenant while a quiet one is
served.
"""

import asyncio
import time

import pytest

from repro.core.online import AnswerResult
from repro.serve.async_answerer import AsyncAnswerer, ServeConfig
from repro.serve.control import (
    ControllerConfig,
    FairQueue,
    QuotaExceeded,
    SLOController,
    TokenBucket,
    parse_quota,
)
from repro.serve.metrics import ServeMetrics


def _result(question: str, value: str) -> AnswerResult:
    return AnswerResult(
        question=question,
        value=value,
        values=(value,),
        score=1.0,
        entity="e",
        template="t",
        predicate=None,
        found_predicate=True,
    )


class EchoTarget:
    """Deterministic picklable target (value is a function of the question)."""

    def answer_many(self, questions):
        return [_result(q, f"v:{' '.join(q.split())}") for q in questions]


# -- Token buckets and quota parsing ----------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
        assert [bucket.take(0.0) for _ in range(4)] == [True, True, True, False]
        # 0.1 s at 10/s refills exactly one token
        assert bucket.take(0.1) is True
        assert bucket.take(0.1) is False

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        assert bucket.take(1000.0) is True  # an hour idle != unlimited burst
        assert bucket.take(1000.0) is True
        assert bucket.take(1000.0) is False

    def test_time_never_runs_backward(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, now=10.0)
        assert bucket.take(10.0) is True
        assert bucket.take(5.0) is False  # stale timestamp cannot mint tokens


class TestParseQuota:
    def test_plain_and_weighted(self):
        quota = parse_quota("50:100")
        assert quota.rate_qps == 50.0
        assert quota.burst == 100.0
        assert quota.weight("anyone") == 1.0
        weighted = parse_quota("50:100;gold=4;free=1")
        assert weighted.weight("gold") == 4.0
        assert weighted.weight("free") == 1.0
        assert weighted.weight("other") == 1.0

    @pytest.mark.parametrize(
        "spec", ["", "50", "x:y", "50:100;gold", "50:100;=2", "0:10", "5:0"]
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_quota(spec)

    def test_serve_config_validates_quota_eagerly(self):
        with pytest.raises(ValueError):
            ServeConfig(quota="not-a-spec")
        with pytest.raises(ValueError):
            ServeConfig(adaptive=True)  # adaptive requires an SLO


# -- Fair queueing -----------------------------------------------------------


def _item(tenant, i=0):
    return (f"k{tenant}{i}", f"q{i}", None, tenant, 0.0)


class TestFairQueue:
    def test_drains_proportionally_to_weights(self):
        queue = FairQueue(parse_quota("1000:1000;heavy=3;light=1"))
        for i in range(300):
            queue.append(_item("heavy", i))
        for i in range(100):
            queue.append(_item("light", i))
        first_200 = [queue.popleft()[3] for _ in range(200)]
        heavy = first_200.count("heavy")
        light = first_200.count("light")
        # deficit WRR: 3:1 service within rounding over any long prefix
        assert heavy == pytest.approx(150, abs=8)
        assert light == pytest.approx(50, abs=8)
        while queue:
            queue.popleft()
        assert len(queue) == 0

    def test_flooder_cannot_starve_fifo_order_within_tenant(self):
        queue = FairQueue(parse_quota("100:100"))
        for i in range(5):
            queue.append(_item("a", i))
        queue.append(_item("b", 0))
        drained = [queue.popleft() for _ in range(6)]
        # b is served long before a's backlog drains...
        assert drained.index(_item("b", 0)) <= 1
        # ...and a's items come out in its own FIFO order
        a_items = [item for item in drained if item[3] == "a"]
        assert a_items == [_item("a", i) for i in range(5)]

    def test_admit_spends_tokens_then_queued_share(self):
        queue = FairQueue(parse_quota("1:2"))
        now = 0.0
        assert queue.admit("hog", now, max_pending=8)  # token 1
        assert queue.admit("hog", now, max_pending=8)  # token 2
        # bucket empty: the share bypass admits until the backlog reaches
        # the tenant's slice — half the box for a lone default-weight
        # tenant (the other half is the newcomer reserve)
        for i in range(4):
            assert queue.admit("hog", now, max_pending=8)
            queue.append(_item("hog", i))
        assert not queue.admit("hog", now, max_pending=8)  # share exhausted

    def test_share_splits_between_contending_tenants(self):
        queue = FairQueue(parse_quota("1:1;hog=1;payg=1"))
        now = 0.0
        queue.admit("hog", now, max_pending=8)  # burn both single tokens
        queue.admit("payg", now, max_pending=8)
        queue.append(_item("payg", 0))  # payg is now a contending tenant
        for i in range(10):
            if queue.admit("hog", now, max_pending=9):
                queue.append(_item("hog", i))
        # two equal-weight contenders + the newcomer reserve: a third each
        assert queue.queued("hog") <= 3

    def test_popleft_empty_raises(self):
        queue = FairQueue(parse_quota("1:1"))
        with pytest.raises(IndexError):
            queue.popleft()

    # admit() defaults max_pending through keyword in the answerer; give the
    # two-arg form used above an explicit default for the test calls
    def test_admit_signature(self):
        queue = FairQueue(parse_quota("1000:1000"))
        assert queue.admit(None, 0.0, max_pending=4)


# -- The AIMD law (unit, injected clock) ------------------------------------


class _Knobs:
    """The controller's view of an answerer: three mutable attributes."""

    def __init__(self, window=2.0, batch=8, pending=256):
        self.batch_window_ms = window
        self.max_batch = batch
        self.max_pending = pending


def _controller(knobs, metrics, **overrides):
    defaults = dict(slo_p99_ms=50.0, min_samples=8, min_pending=32)
    defaults.update(overrides)
    return SLOController(knobs, metrics, ControllerConfig(**defaults))


def _feed(metrics, value_ms, n, now):
    for _ in range(n):
        metrics.observe_total(value_ms, now=now)


class TestSLOControllerLaw:
    def test_idle_below_min_samples(self):
        knobs, metrics = _Knobs(), ServeMetrics()
        controller = _controller(knobs, metrics)
        _feed(metrics, 10.0, 3, now=100.0)
        assert controller.tick(now=100.0) == "idle"
        assert knobs.batch_window_ms == 2.0
        assert controller.idle_ticks == 1

    def test_breach_shrinks_multiplicatively(self):
        knobs, metrics = _Knobs(window=4.0, batch=16), ServeMetrics()
        controller = _controller(knobs, metrics)
        _feed(metrics, 200.0, 20, now=100.0)  # p99 ~200ms >> 50ms SLO
        assert controller.tick(now=100.0) == "shrink"
        assert knobs.batch_window_ms == pytest.approx(2.0)
        assert knobs.max_batch == 8
        assert controller.breaches == 1

    def test_window_snaps_to_min_instead_of_decaying_geometrically(self):
        knobs, metrics = _Knobs(window=0.4, batch=2), ServeMetrics()
        controller = _controller(knobs, metrics)
        _feed(metrics, 200.0, 20, now=100.0)
        controller.tick(now=100.0)
        assert knobs.batch_window_ms == 0.0  # 0.2 < snap_to_min -> min

    def test_headroom_widens_additively_up_to_caps(self):
        knobs, metrics = _Knobs(window=1.0, batch=4), ServeMetrics()
        config = ControllerConfig(
            slo_p99_ms=50.0,
            min_samples=8,
            max_window_ms=2.0,
            widen_step_ms=0.75,
        )
        controller = SLOController(knobs, metrics, config, batch_cap=6)
        _feed(metrics, 1.0, 20, now=100.0)  # far under 0.7 * 50ms
        assert controller.tick(now=100.0) == "widen"
        assert knobs.batch_window_ms == pytest.approx(1.75)
        assert knobs.max_batch == 6  # +2 clamped at the explicit cap
        assert controller.tick(now=100.0) == "widen"
        assert knobs.batch_window_ms == pytest.approx(2.0)  # clamped at cap
        # a shrunk batch can widen back, but never past batch_cap
        knobs.max_batch = 2
        controller.tick(now=100.0)
        assert knobs.max_batch == 4

    def test_dead_band_holds(self):
        knobs, metrics = _Knobs(window=1.0), ServeMetrics()
        controller = _controller(knobs, metrics, headroom=0.5)
        # p99 lands between 25 and 50 ms: inside the hysteresis band
        _feed(metrics, 30.0, 50, now=100.0)
        assert controller.tick(now=100.0) == "hold"
        assert knobs.batch_window_ms == 1.0
        assert controller.adjustments == controller.admission_changes

    def test_admission_tracks_service_rate(self):
        knobs, metrics = _Knobs(pending=256), ServeMetrics(window_s=0.5, windows=8)
        controller = _controller(knobs, metrics, min_pending=16)
        # 400 samples over 4 live windows (2 s) = 200 qps measured rate;
        # target = 200 * 0.05 s * 4.0 safety = 40
        for i in range(400):
            metrics.observe_total(5.0, now=100.0 + (i % 4) * 0.5)
        controller.tick(now=101.5)
        assert knobs.max_pending == 40
        assert controller.admission_changes == 1
        # a trickle cannot drop admission below min_pending
        for i in range(10):
            metrics.observe_total(5.0, now=200.0)
        controller.tick(now=200.0)
        assert knobs.max_pending == 16

    def test_admission_floor_follows_the_live_batch_knob(self):
        """The floor is max(min_pending, 2 * max_batch): sized for two full
        batches at the *current* batch knob, so a breach-shrunk batch lets
        admission cap queue wait near the SLO instead of pinning the queue
        at a depth sized for the abandoned batch shape."""
        knobs, metrics = _Knobs(batch=8, pending=256), ServeMetrics(
            window_s=0.5, windows=8
        )
        controller = _controller(knobs, metrics, min_pending=4)
        for i in range(10):
            # in the dead band, so the tick holds the window/batch knobs
            metrics.observe_total(40.0, now=100.0)
        controller.tick(now=100.0)
        assert knobs.max_pending == 16  # 2 * batch 8 > min_pending 4
        knobs.max_batch = 2  # as a run of breaches would leave it
        controller.tick(now=100.0)
        assert knobs.max_pending == 4  # 2 * batch 2 < min_pending 4

    def test_old_traffic_rotates_out_of_the_signal(self):
        knobs, metrics = _Knobs(window=4.0), ServeMetrics(window_s=0.5, windows=8)
        controller = _controller(knobs, metrics)
        _feed(metrics, 500.0, 50, now=100.0)  # an overload burst...
        controller.tick(now=100.0)
        assert knobs.batch_window_ms < 4.0
        window_after_breach = knobs.batch_window_ms
        # ...minutes later the burst is gone; recovery traffic widens again
        _feed(metrics, 1.0, 50, now=200.0)
        assert controller.tick(now=200.0) == "widen"
        assert knobs.batch_window_ms > window_after_breach

    def test_snapshot_shape_and_trace(self):
        knobs, metrics = _Knobs(), ServeMetrics()
        controller = _controller(knobs, metrics)
        _feed(metrics, 1.0, 20, now=100.0)
        controller.tick(now=100.0)
        snap = controller.snapshot()
        assert snap["ticks"] == 1
        assert snap["adjustments"] >= 1
        assert snap["initial_window_ms"] == 2.0
        assert snap["trace"][-1]["action"] in ("widen", "hold")
        assert snap["trace"][-1]["window_ms"] == knobs.batch_window_ms


# -- Integration: live answerer ---------------------------------------------


class TestAdaptiveIntegration:
    def test_controller_task_moves_live_knobs(self):
        """End to end: adaptive serving against a fast target widens the
        window off real measured latency, and every answer stays correct."""
        config = ServeConfig(
            workers=2,
            max_batch=16,
            batch_window_ms=0.0,
            slo_ms=100.0,
            adaptive=True,
        )
        questions = [f"question {i}?" for i in range(8)]
        expected = {q: f"v:question {i}?" for i, q in enumerate(questions)}

        async def main():
            async with AsyncAnswerer(EchoTarget(), config) as answerer:
                controller = answerer.controller
                assert controller is not None
                deadline = time.monotonic() + 10.0
                results = {}
                while time.monotonic() < deadline:
                    for q in questions:
                        results[q] = (await answerer.answer(q)).value
                    if controller.adjustments >= 1:
                        break
                return results, controller.snapshot(), answerer.batch_window_ms

        results, snap, live_window = asyncio.run(main())
        assert snap["adjustments"] >= 1
        assert snap["widened"] >= 1  # fast target under a lax SLO: widen
        assert live_window > 0.0
        assert results == expected

    def test_static_config_never_starts_a_controller(self):
        async def main():
            async with AsyncAnswerer(EchoTarget(), ServeConfig(workers=1)) as a:
                assert a.controller is None
                assert a.controller_snapshot() is None
                await a.answer("q?")

        asyncio.run(main())


class TestQuotaIntegration:
    def test_flooding_tenant_throttled_quiet_tenant_served(self):
        """The fairness acceptance: a tenant flooding *concurrently* past
        its bucket and queued share collects 429s, while a quiet tenant —
        submitting into the same backlog — completes everything."""

        class SlowEcho(EchoTarget):
            def answer_many(self, questions):
                time.sleep(0.005)  # keep the hog's backlog standing
                return super().answer_many(questions)

        config = ServeConfig(
            workers=1,
            max_batch=2,
            max_pending=16,
            quota="5:5",  # 5 qps sustained, burst 5, per tenant
        )

        async def main():
            async with AsyncAnswerer(SlowEcho(), config) as answerer:

                async def hog_one(i):
                    try:
                        await answerer.answer(f"hog question {i}?", tenant="hog")
                        return "ok"
                    except QuotaExceeded:
                        return "throttled"

                hogs = [asyncio.ensure_future(hog_one(i)) for i in range(40)]
                await asyncio.sleep(0)  # let the flood enqueue first
                quiet = await asyncio.gather(
                    *(
                        answerer.answer(f"quiet question {i}?", tenant="quiet")
                        for i in range(3)
                    )
                )
                outcomes = await asyncio.gather(*hogs)
                return outcomes, quiet, answerer.snapshot()

        outcomes, quiet, snapshot = asyncio.run(main())
        hog_429 = outcomes.count("throttled")
        hog_done = outcomes.count("ok")
        assert hog_429 > 0  # the flood hit the throttle
        assert hog_done >= 5  # burst + queued share still served some
        assert len(quiet) == 3  # the quiet tenant never sees a 429
        assert all(r.value.startswith("v:quiet") for r in quiet)
        assert snapshot["quota_rejected"] == hog_429

    def test_coalesced_joins_are_quota_free(self):
        """Joining an in-flight evaluation costs the box nothing, so it
        must not burn the tenant's tokens."""
        config = ServeConfig(workers=1, max_batch=4, quota="1:1")

        async def main():
            async with AsyncAnswerer(EchoTarget(), config) as answerer:
                # one token admits the first; the duplicates coalesce free
                results = await asyncio.gather(
                    *(answerer.answer("same question?", tenant="t") for _ in range(6))
                )
                return {r.value for r in results}, answerer.snapshot()

        values, snapshot = asyncio.run(main())
        assert values == {"v:same question?"}
        assert snapshot["quota_rejected"] == 0
        assert snapshot["coalesced"] >= 1
