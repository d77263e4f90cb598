"""Serving telemetry spine: streaming latency histograms + counters.

The measurement layer sits on the hot path of every request, so it has to
be cheap; and it feeds ``/stats``, ``/metrics`` and the benchmark's
per-layer rows, so it has to be exact.  Two properties drive the design:

* **fixed log-bucket histograms** — latencies land in geometrically spaced
  buckets (growth ``2**0.25``, ~±9% relative resolution, ~0.05 ms …
  ~80 s).  Recording is one bisect + two adds under one uncontended lock;
  no sample list ever grows.  Every histogram is cumulative over the
  answerer's life, the monotonic totals Prometheus' scrape model wants.
* **per-stage and per-tenant attribution** — queue wait and evaluation
  time are recorded separately from end-to-end total, and per-tenant
  counters make a noisy client visible.  The tenant label comes from a
  request header, i.e. from outside the program, so at most
  :data:`MAX_TENANTS` labels are tracked; later ones share
  :data:`OVERFLOW_TENANT`.

Export formats: :func:`render_prometheus` writes one :class:`ServeMetrics`
in the Prometheus text exposition format (``/metrics``);
:meth:`ServeMetrics.snapshot` returns the JSON-friendly view folded into
``/stats``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from math import ceil

# Geometric bucket bounds shared by every histogram: a module constant, so
# the ``le`` labels of ``/metrics`` never change from one scrape to the next.
BUCKET_GROWTH = 2.0 ** 0.25
_FIRST_BOUND_MS = 0.05
_LAST_BOUND_MS = 80_000.0


def _build_bounds() -> tuple[float, ...]:
    bounds = [_FIRST_BOUND_MS]
    while bounds[-1] < _LAST_BOUND_MS:
        bounds.append(bounds[-1] * BUCKET_GROWTH)
    return tuple(bounds)


BUCKET_BOUNDS_MS: tuple[float, ...] = _build_bounds()
_OVERFLOW = len(BUCKET_BOUNDS_MS)  # index of the +Inf bucket

# Distinct ``X-KBQA-Client`` labels one answerer tracks; later labels are
# counted together under OVERFLOW_TENANT, so hostile or buggy clients cannot
# grow /stats or /metrics without bound.
MAX_TENANTS = 64
OVERFLOW_TENANT = "_overflow"


class Histogram:
    """One fixed log-bucket latency histogram (values in milliseconds).

    Not thread-safe by itself; :class:`ServeMetrics` provides the lock.
    """

    __slots__ = ("counts", "sum_ms", "count")

    def __init__(self) -> None:
        self.counts = [0] * (_OVERFLOW + 1)
        self.sum_ms = 0.0
        self.count = 0

    def record(self, value_ms: float) -> None:
        self.counts[bisect_left(BUCKET_BOUNDS_MS, value_ms)] += 1
        self.sum_ms += value_ms
        self.count += 1

    def percentile(self, q: float) -> float | None:
        """The upper bucket bound covering quantile ``q`` in [0, 100].

        Conservative (like Prometheus ``histogram_quantile`` it reports a
        bound, not an interpolation); ``None`` on an empty histogram.
        """
        if self.count == 0:
            return None
        rank = max(1, ceil(self.count * q / 100.0))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i >= _OVERFLOW:
                    return BUCKET_BOUNDS_MS[-1] * BUCKET_GROWTH
                return BUCKET_BOUNDS_MS[i]
        return BUCKET_BOUNDS_MS[-1] * BUCKET_GROWTH  # pragma: no cover

    def mean(self) -> float | None:
        return self.sum_ms / self.count if self.count else None


class ServeMetrics:
    """The per-answerer telemetry hub: stage histograms + tenant counters.

    The ``total`` stage holds every completed request.  All mutation happens
    under one lock; the callers are the event loop and, for reads, the
    stats/bench threads.
    """

    STAGES = ("total", "queue_wait", "evaluate")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages = {name: Histogram() for name in self.STAGES}
        self._tenants: dict[str, dict[str, int]] = {}

    # -- Recording ---------------------------------------------------------

    def observe(self, stage: str, value_ms: float) -> None:
        """Record one sample into the named stage histogram."""
        with self._lock:
            self._stages[stage].record(value_ms)

    def observe_total(self, value_ms: float) -> None:
        """Record one end-to-end latency (a completed request)."""
        self.observe("total", value_ms)

    def tenant_inc(self, tenant: str, event: str, n: int = 1) -> None:
        """Bump one per-tenant event counter (past :data:`MAX_TENANTS`
        labels, a new tenant counts under :data:`OVERFLOW_TENANT`)."""
        with self._lock:
            counters = self._tenants.get(tenant)
            if counters is None:
                if len(self._tenants) >= MAX_TENANTS:
                    tenant = OVERFLOW_TENANT
                counters = self._tenants.setdefault(tenant, {})
            counters[event] = counters.get(event, 0) + n

    # -- Views -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-friendly lifetime view for ``/stats``."""
        stages = {}
        with self._lock:
            for name, hist in self._stages.items():
                stages[name] = {
                    "count": hist.count,
                    "mean_ms": _round3(hist.mean()),
                    "p50_ms": _round3(hist.percentile(50)),
                    "p95_ms": _round3(hist.percentile(95)),
                    "p99_ms": _round3(hist.percentile(99)),
                }
            tenants = {t: dict(c) for t, c in self._tenants.items()}
        return {"stages": stages, "tenants": tenants}


def _round3(value: float | None) -> float | None:
    return None if value is None else round(value, 3)


# -- Prometheus text exposition --------------------------------------------

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    # Prometheus accepts any float syntax; integers render without the dot.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    metrics: ServeMetrics,
    counters: dict | None = None,
    gauges: dict | None = None,
) -> str:
    """Render ``metrics`` as Prometheus text format.

    Stage histograms become ``kbqa_stage_latency_ms`` with a ``stage``
    label and cumulative ``le`` buckets; ``counters`` (event name to
    monotonic count) become ``kbqa_serve_events_total{event=...}``; tenant
    counters become ``kbqa_tenant_events_total{tenant=...,event=...}``;
    ``gauges`` maps fully-qualified metric names to instantaneous values.
    """
    with metrics._lock:  # one consistent copy; render outside the lock
        stages = {
            name: (list(hist.counts), hist.sum_ms, hist.count)
            for name, hist in metrics._stages.items()
        }
        tenants = {t: dict(c) for t, c in metrics._tenants.items()}
    lines: list[str] = []
    lines.append("# TYPE kbqa_stage_latency_ms histogram")
    for stage in sorted(stages):
        counts, sum_ms, count = stages[stage]
        label = _escape_label(stage)
        cumulative = 0
        for i, bound in enumerate(BUCKET_BOUNDS_MS):
            cumulative += counts[i]
            lines.append(
                f'kbqa_stage_latency_ms_bucket{{stage="{label}",le="{_fmt(round(bound, 4))}"}} '
                f"{cumulative}"
            )
        lines.append(
            f'kbqa_stage_latency_ms_bucket{{stage="{label}",le="+Inf"}} {count}'
        )
        lines.append(f'kbqa_stage_latency_ms_sum{{stage="{label}"}} {_fmt(round(sum_ms, 4))}')
        lines.append(f'kbqa_stage_latency_ms_count{{stage="{label}"}} {count}')
    lines.append("# TYPE kbqa_serve_events_total counter")
    for event in sorted(counters or {}):
        value = counters[event]
        lines.append(
            f'kbqa_serve_events_total{{event="{_escape_label(event)}"}} {_fmt(value)}'
        )
    if tenants:
        lines.append("# TYPE kbqa_tenant_events_total counter")
        for tenant in sorted(tenants):
            for event in sorted(tenants[tenant]):
                lines.append(
                    f'kbqa_tenant_events_total{{tenant="{_escape_label(tenant)}",'
                    f'event="{_escape_label(event)}"}} {_fmt(tenants[tenant][event])}'
                )
    for name in sorted(gauges or {}):
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt(gauges[name])}")
    return "\n".join(lines) + "\n"
