"""Serving telemetry spine: streaming latency histograms + counters.

The measurement layer sits on the hot path of every request, so it has to
be cheap; and it feeds ``/stats``, ``/metrics`` and the benchmark's
per-layer rows, so it has to merge exactly.  Two properties drive the
design:

* **fixed log-bucket histograms** — latencies land in geometrically spaced
  buckets (growth ``2**0.25``, ~±9% relative resolution, ~0.05 ms …
  ~80 s).  Recording is one bisect + two adds under one uncontended lock;
  no sample list ever grows.  Bucket bounds are a module constant, so any
  two histograms (across stages, replicas, or processes) merge by adding
  count arrays — that is what the multi-process front does at ``/stats``
  and ``/metrics``.  Every histogram is cumulative over the answerer's
  life, the monotonic totals Prometheus' scrape model wants.
* **per-stage and per-tenant attribution** — queue wait and evaluation
  time are recorded separately from end-to-end total, and per-tenant
  counters make a noisy client visible.  The tenant label comes from a
  request header, i.e. from outside the program, so at most
  :data:`MAX_TENANTS` labels are tracked; later ones share
  :data:`OVERFLOW_TENANT`.

Export formats: :func:`render_prometheus` writes the Prometheus text
exposition format (``/metrics``); :meth:`ServeMetrics.snapshot` returns the
JSON-friendly view folded into ``/stats``; :meth:`ServeMetrics.state` /
:func:`merge_states` are the mergeable form replicas dump to disk for
cross-process aggregation.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from math import ceil

# Geometric bucket bounds shared by every histogram: merging is defined
# only because these are a module constant, never per-instance.
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
# grow /stats, /metrics or the replica dumps without bound.
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

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram by bucket-count addition."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum_ms += other.sum_ms
        self.count += other.count

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

    def to_state(self) -> dict:
        return {"counts": list(self.counts), "sum_ms": self.sum_ms, "count": self.count}

    @classmethod
    def from_state(cls, state: dict) -> "Histogram":
        """Rebuild from :meth:`to_state` output (validates bucket count)."""
        hist = cls()
        counts = state.get("counts", [])
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram state has {len(counts)} buckets, expected {len(hist.counts)}"
            )
        hist.counts = [int(c) for c in counts]
        hist.sum_ms = float(state.get("sum_ms", 0.0))
        hist.count = int(state.get("count", 0))
        return hist


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

    def state(self) -> dict:
        """Cumulative, mergeable state (the replica dump / merge unit)."""
        with self._lock:
            return {
                "stages": {name: hist.to_state() for name, hist in self._stages.items()},
                "tenants": {t: dict(c) for t, c in self._tenants.items()},
                "counters": {},
            }


def _round3(value: float | None) -> float | None:
    return None if value is None else round(value, 3)


def merge_states(states: list[dict]) -> dict:
    """Sum any number of :meth:`ServeMetrics.state` dicts into one.

    Shape-tolerant: stages/tenants/counters missing from one replica's dump
    (e.g. a replica that saw no traffic yet) contribute nothing, and so does
    an *empty* histogram state (``{}`` or ``counts: []`` with zero samples).
    A histogram whose bucket layout disagrees with this process's
    :data:`BUCKET_BOUNDS_MS` (replica built against a different layout) or
    that carries samples without buckets raises a ``ValueError`` naming the
    stage — merging it positionally would silently mis-bin every sample.
    """
    merged: dict = {"stages": {}, "tenants": {}, "counters": {}}
    for state in states:
        for name, hist_state in state.get("stages", {}).items():
            if not isinstance(hist_state, dict):
                raise ValueError(
                    f"stage {name!r}: histogram state must be a dict, "
                    f"got {type(hist_state).__name__}"
                )
            if not hist_state.get("counts"):
                if int(hist_state.get("count", 0)):
                    raise ValueError(
                        f"stage {name!r}: histogram state carries "
                        f"{hist_state['count']} samples but no buckets"
                    )
                continue  # empty dump: contributes nothing
            try:
                hist = Histogram.from_state(hist_state)
            except ValueError as error:
                raise ValueError(f"stage {name!r}: {error}") from None
            if name in merged["stages"]:
                existing = Histogram.from_state(merged["stages"][name])
                existing.merge(hist)
                merged["stages"][name] = existing.to_state()
            else:
                merged["stages"][name] = hist.to_state()
        for tenant, counters in state.get("tenants", {}).items():
            out = merged["tenants"].setdefault(tenant, {})
            for event, value in counters.items():
                out[event] = out.get(event, 0) + int(value)
        for counter, value in state.get("counters", {}).items():
            merged["counters"][counter] = merged["counters"].get(counter, 0) + int(value)
    return merged


# -- Prometheus text exposition --------------------------------------------

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    # Prometheus accepts any float syntax; integers render without the dot.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(state: dict, gauges: dict | None = None) -> str:
    """Render one (possibly merged) state dict as Prometheus text format.

    Stage histograms become ``kbqa_stage_latency_ms`` with a ``stage``
    label and cumulative ``le`` buckets; global counters become
    ``kbqa_serve_events_total{event=...}``; tenant counters become
    ``kbqa_tenant_events_total{tenant=...,event=...}``; ``gauges`` maps
    fully-qualified metric names to instantaneous values.
    """
    lines: list[str] = []
    lines.append("# TYPE kbqa_stage_latency_ms histogram")
    for stage in sorted(state.get("stages", {})):
        hist = Histogram.from_state(state["stages"][stage])
        label = _escape_label(stage)
        cumulative = 0
        for i, bound in enumerate(BUCKET_BOUNDS_MS):
            cumulative += hist.counts[i]
            lines.append(
                f'kbqa_stage_latency_ms_bucket{{stage="{label}",le="{_fmt(round(bound, 4))}"}} '
                f"{cumulative}"
            )
        lines.append(
            f'kbqa_stage_latency_ms_bucket{{stage="{label}",le="+Inf"}} {hist.count}'
        )
        lines.append(f'kbqa_stage_latency_ms_sum{{stage="{label}"}} {_fmt(round(hist.sum_ms, 4))}')
        lines.append(f'kbqa_stage_latency_ms_count{{stage="{label}"}} {hist.count}')
    lines.append("# TYPE kbqa_serve_events_total counter")
    for event in sorted(state.get("counters", {})):
        value = state["counters"][event]
        lines.append(
            f'kbqa_serve_events_total{{event="{_escape_label(event)}"}} {_fmt(value)}'
        )
    tenants = state.get("tenants", {})
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
