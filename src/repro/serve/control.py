"""Adaptive serving control plane: SLO feedback + per-tenant fairness.

The serving knobs (`batch_window_ms`, `max_batch`, `max_pending`) trade
latency against throughput, and the right setting depends on the offered
load — which shifts.  This module closes the loop:

* :class:`SLOController` — an AIMD feedback controller ticking every
  ``interval_s`` against the *windowed* p99 from the metrics spine
  (`repro.serve.metrics`): while p99 has headroom under the SLO it widens
  the batch window additively (amortizing dispatch into fuller batches)
  and grows ``max_batch`` back toward its configured cap; on an SLO breach
  it shrinks both multiplicatively — the classic stable-under-feedback
  shape (additive increase probes, multiplicative decrease backs off fast).
  It also adapts the ``max_pending`` admission bound to the measured
  service rate (Little's law: more queue than ``rate x SLO`` can only turn
  timely 503s into late 200s).
* :class:`TokenBucket` / :class:`QuotaConfig` — per-tenant token-bucket
  quotas keyed on the ``X-KBQA-Client`` header (CLI spec
  ``"RATE:BURST[;tenant=weight...]"``).
* :class:`FairQueue` — the quota-aware replacement for the FIFO dispatch
  queue: per-tenant sub-queues drained by deficit weighted round-robin, so
  a tenant that floods past its token bucket queues behind *its own*
  backlog (bounded by its weighted share of ``max_pending``, which always
  reserves headroom for a newcomer) and then gets :class:`QuotaExceeded`
  (HTTP 429) — while other tenants' requests keep draining at their
  weight.  Mostly work-conserving: an uncontended tenant gets its token
  rate plus the lion's share of the queue; the newcomer reserve is what
  keeps a flood from turning other tenants' first requests into 503s.

Health checks never pass through any of this: ``/healthz`` is answered by
the HTTP layer before the answerer, so quotas and admission cannot starve
liveness probes.

This module deliberately imports nothing from ``async_answerer`` (which
imports it); the controller drives any object exposing mutable
``batch_window_ms`` / ``max_batch`` / ``max_pending`` attributes.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass


class QuotaExceeded(RuntimeError):
    """The tenant is past its token bucket *and* its queued share.

    Mapped to HTTP 429 — deliberately not a subclass of
    ``OverloadedError``, so the degraded-mode cached-answer fallback does
    not absorb it: a throttled tenant must see the throttle.
    """


@dataclass(frozen=True, slots=True)
class QuotaConfig:
    """Per-tenant token-bucket parameters plus scheduling weights.

    ``rate_qps``/``burst`` apply to *each* tenant's own bucket; ``weights``
    bias both the round-robin drain and the queued-backlog share (default
    weight 1.0).  Weights are clamped to a small positive floor so the
    deficit round-robin always terminates.
    """

    rate_qps: float
    burst: float
    weights: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.rate_qps <= 0:
            raise ValueError(f"quota rate_qps must be > 0, got {self.rate_qps}")
        if self.burst < 1:
            raise ValueError(f"quota burst must be >= 1, got {self.burst}")
        for tenant, weight in self.weights:
            if weight <= 0:
                raise ValueError(f"quota weight for {tenant!r} must be > 0, got {weight}")

    def weight(self, tenant: str) -> float:
        """The tenant's scheduling weight (default 1.0, floored at 0.05)."""
        for name, weight in self.weights:
            if name == tenant:
                return max(weight, 0.05)
        return 1.0


def parse_quota(spec: str) -> QuotaConfig:
    """Parse the CLI quota spec: ``"RATE:BURST[;tenant=weight]..."``.

    Examples: ``"50:100"`` (every tenant: 50 req/s sustained, 100 burst),
    ``"50:100;gold=4;free=1"`` (same buckets, gold drains 4x the weight).
    """
    head, *weight_parts = [part.strip() for part in spec.split(";") if part.strip()]
    rate_str, sep, burst_str = head.partition(":")
    if not sep:
        raise ValueError(f"quota spec must look like 'RATE:BURST[;tenant=weight]', got {spec!r}")
    try:
        rate = float(rate_str)
        burst = float(burst_str)
    except ValueError:
        raise ValueError(f"quota rate/burst must be numbers, got {head!r}") from None
    weights = []
    for part in weight_parts:
        tenant, eq, weight_str = part.partition("=")
        if not eq or not tenant:
            raise ValueError(f"quota weight must look like 'tenant=weight', got {part!r}")
        try:
            weights.append((tenant, float(weight_str)))
        except ValueError:
            raise ValueError(f"quota weight must be a number, got {part!r}") from None
    return QuotaConfig(rate_qps=rate, burst=burst, weights=tuple(weights))


class TokenBucket:
    """Continuous-refill token bucket (monotonic timestamps passed in)."""

    __slots__ = ("rate", "burst", "tokens", "_updated")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._updated = now

    def take(self, now: float, n: float = 1.0) -> bool:
        """Spend ``n`` tokens if the refilled balance covers them."""
        if now > self._updated:
            self.tokens = min(self.burst, self.tokens + (now - self._updated) * self.rate)
            self._updated = now
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


# Queue items are the answerer's (key, question, future, tenant, t_enq)
# tuples; the fair queue only inspects this field.
_TENANT_FIELD = 3
_ANON = ""  # untagged requests share one tenant bucket/queue


class FairQueue:
    """Per-tenant sub-queues drained by deficit weighted round-robin.

    Drop-in for the dispatch ``deque`` (``append`` / ``popleft`` /
    ``len`` / truthiness), plus :meth:`admit` for the quota decision at
    enqueue time.  Tokens are consumed at *admission*, never at drain, so
    the dispatcher can always make progress on whatever was admitted.

    Drain fairness (deficit round-robin): a visit deposits the tenant's
    weight into its credit balance once, then emits items — one per
    ``popleft`` call — until the credit or the backlog runs out, and only
    then rotates on.  Per rotation every backlogged tenant is served in
    proportion to its weight (sub-1 weights accrue credit across
    rotations), regardless of who floods the queue.
    """

    def __init__(self, quota: QuotaConfig) -> None:
        self.quota = quota
        self._queues: dict[str, deque] = {}
        self._rotation: deque[str] = deque()
        self._credits: dict[str, float] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def queued(self, tenant: str | None) -> int:
        return len(self._queues.get(tenant or _ANON, ()))

    def admit(self, tenant: str | None, now: float, *, max_pending: int) -> bool:
        """One admission decision: token, or queued-share headroom, or no.

        Past its bucket a tenant may still queue up to its weighted share
        of ``max_pending`` over the currently *contending* tenants plus one
        default-weight newcomer reserve — so a flooding tenant's uncharged
        backlog can never fill the whole admission budget, and a tenant
        arriving mid-flood finds both queue headroom and its own tokens
        intact (it cannot be starved into 503s by someone else's backlog).
        """
        name = tenant or _ANON
        bucket = self._buckets.get(name)
        if bucket is None:
            bucket = TokenBucket(self.quota.rate_qps, self.quota.burst, now)
            self._buckets[name] = bucket
        if bucket.take(now):
            return True
        contending = {t for t, q in self._queues.items() if q}
        contending.add(name)
        total_weight = sum(self.quota.weight(t) for t in contending) + 1.0
        share = max(1, int(max_pending * self.quota.weight(name) / total_weight))
        return len(self._queues.get(name, ())) < share

    def append(self, item: tuple) -> None:
        """Enqueue one admitted item on its tenant's sub-queue (registering
        the tenant in the drain rotation if it was idle)."""
        name = item[_TENANT_FIELD] or _ANON
        queue = self._queues.setdefault(name, deque())
        if name not in self._credits:
            self._rotation.append(name)
            self._credits[name] = self.quota.weight(name)
        queue.append(item)
        self._count += 1

    def popleft(self) -> tuple:
        """Dequeue the next item under deficit weighted round-robin."""
        if self._count == 0:
            raise IndexError("pop from an empty FairQueue")
        while True:
            name = self._rotation[0]
            queue = self._queues.get(name)
            if not queue:
                # tenant drained since its last visit: retire it from the
                # rotation (it re-registers on its next append)
                self._rotation.popleft()
                self._credits.pop(name, None)
                continue
            if self._credits[name] < 1.0:
                # fresh visit: deposit the quantum once, then spend it down
                self._credits[name] += self.quota.weight(name)
                if self._credits[name] < 1.0:
                    # sub-1 weight: accrue across rotations, serve later
                    self._rotation.rotate(-1)
                    continue
            self._credits[name] -= 1.0
            item = queue.popleft()
            self._count -= 1
            if self._credits[name] < 1.0 or not queue:
                self._rotation.rotate(-1)  # visit over: next tenant's turn
            return item


# -- SLO feedback controller ------------------------------------------------

DEFAULT_INTERVAL_S = 0.25


@dataclass(frozen=True, slots=True)
class ControllerConfig:
    """AIMD law parameters for :class:`SLOController`.

    ``headroom`` defines the dead band: p99 above ``slo_p99_ms`` shrinks,
    p99 below ``headroom * slo_p99_ms`` widens, in between the controller
    holds (hysteresis against oscillation).  ``min_samples`` gates ticks so
    an idle server never steers on noise.  ``snap_to_min_ms``: a window
    multiplicatively shrunk below this snaps straight to ``min_window_ms``
    (a geometric series never reaches zero on its own).

    The admission floor is ``max(min_pending, 2 * live max_batch)`` — deep
    enough to keep two full batches queued at the current batch knob.  At
    the default batch of 16 that is the familiar 32; when breaches have
    shrunk the batch, the floor follows it down so the Little's-law bound
    can actually cap queue wait near the SLO instead of pinning the queue
    at a depth sized for a batch shape the controller already abandoned.
    """

    slo_p99_ms: float
    interval_s: float = DEFAULT_INTERVAL_S
    headroom: float = 0.7
    widen_step_ms: float = 0.5
    shrink_factor: float = 0.5
    min_window_ms: float = 0.0
    max_window_ms: float = 10.0
    batch_step: int = 2
    min_batch: int = 1
    min_samples: int = 8
    snap_to_min_ms: float = 0.25
    adapt_admission: bool = True
    admission_safety: float = 4.0
    min_pending: int = 8
    trace_len: int = 256

    def __post_init__(self) -> None:
        if self.slo_p99_ms <= 0:
            raise ValueError(f"slo_p99_ms must be > 0, got {self.slo_p99_ms}")
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if not 0.0 < self.headroom < 1.0:
            raise ValueError(f"headroom must be in (0, 1), got {self.headroom}")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError(f"shrink_factor must be in (0, 1), got {self.shrink_factor}")
        if self.min_window_ms < 0 or self.max_window_ms < self.min_window_ms:
            raise ValueError(
                f"need 0 <= min_window_ms <= max_window_ms, got "
                f"{self.min_window_ms}/{self.max_window_ms}"
            )


@dataclass
class _Trace:
    """One tick's record (kept in a bounded deque for /stats and the bench)."""

    t: float
    action: str
    p99_ms: float | None
    window_ms: float
    max_batch: int
    max_pending: int

    def as_dict(self) -> dict:
        return {
            "t": round(self.t, 3),
            "action": self.action,
            "p99_ms": self.p99_ms,
            "window_ms": round(self.window_ms, 3),
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
        }


class SLOController:
    """Ticks the AIMD law against an answerer's live knobs.

    ``answerer`` is anything with mutable ``batch_window_ms`` /
    ``max_batch`` / ``max_pending`` attributes; ``metrics`` provides
    :meth:`~repro.serve.metrics.ServeMetrics.controller_view`.  ``tick``
    is synchronous and deterministic given the metrics state — the unit
    tests drive it directly with injected clocks; :meth:`run` is the
    asyncio loop the answerer starts when ``ServeConfig.adaptive`` is on.
    """

    def __init__(
        self,
        answerer,
        metrics,
        config: ControllerConfig,
        *,
        batch_cap: int | None = None,
        pending_cap: int | None = None,
    ) -> None:
        self.answerer = answerer
        self.metrics = metrics
        self.config = config
        self._batch_cap = batch_cap if batch_cap is not None else answerer.max_batch
        self._pending_cap = (
            pending_cap if pending_cap is not None else answerer.max_pending
        )
        self._initial = (
            answerer.batch_window_ms,
            answerer.max_batch,
            answerer.max_pending,
        )
        self.ticks = 0
        self.idle_ticks = 0
        self.breaches = 0
        self.widened = 0
        self.shrunk = 0
        self.admission_changes = 0
        self.trace: deque[_Trace] = deque(maxlen=config.trace_len)

    # -- The control law ---------------------------------------------------

    def tick(self, now: float | None = None) -> str:
        """One synchronous control decision; returns the action taken
        (``idle`` / ``shrink`` / ``breach`` / ``widen`` / ``hold``)."""
        now = time.monotonic() if now is None else now
        cfg = self.config
        a = self.answerer
        self.ticks += 1
        view = self.metrics.controller_view(now)
        p99 = view["p99_ms"]
        if view["count"] < cfg.min_samples or p99 is None:
            self.idle_ticks += 1
            action = "idle"
        elif p99 > cfg.slo_p99_ms:
            self.breaches += 1
            action = "breach"
            new_window = a.batch_window_ms * cfg.shrink_factor
            if new_window < cfg.snap_to_min_ms:
                new_window = cfg.min_window_ms
            new_window = max(cfg.min_window_ms, new_window)
            new_batch = max(cfg.min_batch, int(a.max_batch * cfg.shrink_factor))
            if new_window < a.batch_window_ms or new_batch < a.max_batch:
                a.batch_window_ms = new_window
                a.max_batch = new_batch
                self.shrunk += 1
                action = "shrink"
        elif p99 < cfg.headroom * cfg.slo_p99_ms:
            action = "hold"
            new_window = min(cfg.max_window_ms, a.batch_window_ms + cfg.widen_step_ms)
            new_batch = min(self._batch_cap, a.max_batch + cfg.batch_step)
            if new_window > a.batch_window_ms or new_batch > a.max_batch:
                a.batch_window_ms = new_window
                a.max_batch = new_batch
                self.widened += 1
                action = "widen"
        else:
            action = "hold"  # inside the dead band: hysteresis
        if cfg.adapt_admission and view["count"] >= cfg.min_samples:
            # Little's law: sustainable queue ~ service rate x SLO; beyond a
            # safety factor of that, queued work can only finish late.
            target = int(view["rate_qps"] * (cfg.slo_p99_ms / 1000.0) * cfg.admission_safety)
            floor = max(cfg.min_pending, 2 * a.max_batch)
            target = max(min(floor, self._pending_cap), min(self._pending_cap, target))
            if target != a.max_pending:
                a.max_pending = target
                self.admission_changes += 1
        self.trace.append(
            _Trace(
                t=now,
                action=action,
                p99_ms=None if p99 is None else round(p99, 3),
                window_ms=a.batch_window_ms,
                max_batch=a.max_batch,
                max_pending=a.max_pending,
            )
        )
        return action

    async def run(self) -> None:
        """The asyncio loop: tick every ``interval_s`` until cancelled."""
        while True:
            await asyncio.sleep(self.config.interval_s)
            self.tick()

    # -- Introspection -----------------------------------------------------

    @property
    def adjustments(self) -> int:
        return self.widened + self.shrunk + self.admission_changes

    def snapshot(self) -> dict:
        """Counters, live vs initial knob values, and the tick trace —
        the ``/stats`` ``controller`` section and the bench's evidence."""
        window0, batch0, pending0 = self._initial
        return {
            "slo_p99_ms": self.config.slo_p99_ms,
            "interval_s": self.config.interval_s,
            "ticks": self.ticks,
            "idle_ticks": self.idle_ticks,
            "breaches": self.breaches,
            "widened": self.widened,
            "shrunk": self.shrunk,
            "admission_changes": self.admission_changes,
            "adjustments": self.adjustments,
            "window_ms": round(self.answerer.batch_window_ms, 3),
            "max_batch": self.answerer.max_batch,
            "max_pending": self.answerer.max_pending,
            "initial_window_ms": round(window0, 3),
            "initial_max_batch": batch0,
            "initial_max_pending": pending0,
            "trace": [entry.as_dict() for entry in self.trace],
        }
