"""Serving telemetry spine: streaming latency histograms + counters.

The adaptive control plane (`repro.serve.control`) steers three live knobs
— batch window, batch size, admission bound — off *measured* tail latency,
so the measurement layer has to be cheap enough to sit on the hot path and
honest enough to steer by.  Three properties drive the design:

* **fixed log-bucket histograms** — latencies land in geometrically spaced
  buckets (growth ``2**0.25``, ~±9% relative resolution, ~0.05 ms …
  ~80 s).  Recording is one bisect + two adds under one uncontended lock;
  no sample list ever grows.  Bucket bounds are a module constant, so any
  two histograms (across stages, replicas, or processes) merge by adding
  count arrays — that is what the multi-process front does at ``/stats``
  and ``/metrics``.
* **windowed percentiles** — the controller must react to the *recent*
  p99, not the lifetime one, so each histogram keeps a ring of
  sub-histograms rotated by monotonic time: a windowed view sums the
  live slots (a few hundred ints), and stale slots are recycled lazily on
  the next record.  The cumulative histogram is kept alongside for
  Prometheus, whose scrape model wants monotonic totals.
* **per-stage and per-tenant attribution** — queue wait, batch linger and
  evaluation time are recorded separately from end-to-end total (the
  controller's signal), and per-tenant counters make a noisy client
  visible.

Export formats: :func:`render_prometheus` writes the Prometheus text
exposition format (``/metrics``); :meth:`ServeMetrics.snapshot` returns the
JSON-friendly windowed view folded into ``/stats``;
:meth:`ServeMetrics.state` / :func:`merge_states` are the mergeable
cumulative form replicas dump to disk for cross-process aggregation.
:func:`parse_prometheus_text` is the validating parser the smoke test and
the test suite use to prove the exposition output is well-formed.
"""

from __future__ import annotations

import threading
import time
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


class Histogram:
    """One fixed log-bucket latency histogram (values in milliseconds).

    Not thread-safe by itself; :class:`ServeMetrics` provides the lock.
    """

    __slots__ = ("counts", "sum_ms", "count")

    def __init__(self) -> None:
        self.counts = [0] * (_OVERFLOW + 1)
        self.sum_ms = 0.0
        self.count = 0

    def reset(self) -> None:
        """Zero every bucket and the running sum/count."""
        for i in range(len(self.counts)):
            self.counts[i] = 0
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


class WindowedHistogram:
    """A cumulative histogram plus a time-rotated ring of recent windows.

    ``record`` lands the sample in the cumulative histogram *and* the ring
    slot for ``now``'s window; a slot whose epoch fell out of the ring is
    reset in place on first touch (no timer thread).  ``view`` sums the
    slots still inside the lookback and reports the span they cover, which
    is what turns a windowed count into a service *rate*.
    """

    __slots__ = ("window_s", "windows", "total", "_epochs", "_ring")

    def __init__(self, window_s: float = 0.5, windows: int = 8) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        if windows < 2:
            raise ValueError(f"windows must be >= 2, got {windows}")
        self.window_s = window_s
        self.windows = windows
        self.total = Histogram()
        self._epochs = [-1] * windows
        self._ring = [Histogram() for _ in range(windows)]

    def record(self, value_ms: float, now: float) -> None:
        """Record into the cumulative histogram and ``now``'s ring slot."""
        self.total.record(value_ms)
        epoch = int(now / self.window_s)
        slot = epoch % self.windows
        if self._epochs[slot] != epoch:
            self._ring[slot].reset()
            self._epochs[slot] = epoch
        self._ring[slot].record(value_ms)

    def view(self, now: float) -> tuple[Histogram, float]:
        """(merged recent histogram, seconds of lookback it spans)."""
        epoch = int(now / self.window_s)
        merged = Histogram()
        live = 0
        for slot in range(self.windows):
            if epoch - self._epochs[slot] < self.windows and self._epochs[slot] >= 0:
                merged.merge(self._ring[slot])
                live += 1
        return merged, max(live, 1) * self.window_s


class ServeMetrics:
    """The per-answerer telemetry hub: stage histograms + tenant counters.

    The ``total`` stage holds every completed request and is what the SLO
    controller steers by (:meth:`controller_view`).  All mutation happens
    under one lock; the callers are the event loop and, for reads, the
    stats/bench threads.
    """

    STAGES = ("total", "queue_wait", "batch_linger", "evaluate")

    def __init__(self, *, window_s: float = 0.5, windows: int = 8) -> None:
        self._lock = threading.Lock()
        self._window_s = window_s
        self._stages = {
            name: WindowedHistogram(window_s, windows) for name in self.STAGES
        }
        self._tenants: dict[str, dict[str, int]] = {}

    # -- Recording ---------------------------------------------------------

    def observe(self, stage: str, value_ms: float, now: float | None = None) -> None:
        """Record one sample into the named stage histogram."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._stages[stage].record(value_ms, now)

    def observe_total(self, value_ms: float, *, now: float | None = None) -> None:
        """Record one end-to-end latency (a completed request)."""
        self.observe("total", value_ms, now)

    def tenant_inc(self, tenant: str, event: str, n: int = 1) -> None:
        """Bump one per-tenant event counter."""
        with self._lock:
            counters = self._tenants.setdefault(tenant, {})
            counters[event] = counters.get(event, 0) + n

    # -- Views -------------------------------------------------------------

    def controller_view(self, now: float | None = None) -> dict:
        """The windowed signal the SLO controller ticks on."""
        now = time.monotonic() if now is None else now
        with self._lock:
            hist, span_s = self._stages["total"].view(now)
        return {
            "count": hist.count,
            "p50_ms": hist.percentile(50),
            "p99_ms": hist.percentile(99),
            "span_s": span_s,
            "rate_qps": hist.count / span_s if span_s > 0 else 0.0,
        }

    def snapshot(self, now: float | None = None) -> dict:
        """JSON-friendly windowed + cumulative view for ``/stats``."""
        now = time.monotonic() if now is None else now
        stages = {}
        with self._lock:
            for name, wh in self._stages.items():
                recent, span_s = wh.view(now)
                stages[name] = {
                    "count": wh.total.count,
                    "mean_ms": _round3(wh.total.mean()),
                    "recent_count": recent.count,
                    "recent_span_s": span_s,
                    "p50_ms": _round3(recent.percentile(50)),
                    "p95_ms": _round3(recent.percentile(95)),
                    "p99_ms": _round3(recent.percentile(99)),
                }
            tenants = {t: dict(c) for t, c in self._tenants.items()}
        return {"stages": stages, "tenants": tenants}

    def state(self) -> dict:
        """Cumulative, mergeable state (the replica dump / merge unit)."""
        with self._lock:
            return {
                "stages": {
                    name: wh.total.to_state() for name, wh in self._stages.items()
                },
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


def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse (and validate) Prometheus text format into
    ``{metric: [(labels, value), ...]}``.

    Strict enough to catch real framing bugs — malformed sample lines,
    unparseable values, non-monotonic ``le`` bucket counts — without
    implementing the full exposition grammar.  Raises ``ValueError``.
    """
    series: dict[str, list[tuple[dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"line {lineno}: no metric name in {line!r}")
        try:
            value = float(value_part)
        except ValueError:
            raise ValueError(
                f"line {lineno}: unparseable value {value_part!r}"
            ) from None
        labels: dict[str, str] = {}
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"line {lineno}: unterminated labels in {line!r}")
            name, _, label_blob = name_part.partition("{")
            for pair in _split_labels(label_blob[:-1], lineno):
                key, sep, raw = pair.partition("=")
                if not sep or len(raw) < 2 or raw[0] != '"' or raw[-1] != '"':
                    raise ValueError(f"line {lineno}: malformed label {pair!r}")
                labels[key] = _unescape_label(raw[1:-1])
        else:
            name = name_part
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: invalid metric name {name!r}")
        series.setdefault(name, []).append((labels, value))
    for name, samples in series.items():
        if name.endswith("_bucket"):
            _check_bucket_monotonic(name, samples)
    return series


def _unescape_label(raw: str) -> str:
    """Invert :func:`_escape_label` — a left-to-right scan, because chained
    ``str.replace`` calls corrupt ``\\\\n`` (escaped-backslash + n)."""
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _split_labels(blob: str, lineno: int) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated quote in labels")
    if current:
        parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]


def _check_bucket_monotonic(
    name: str, samples: list[tuple[dict[str, str], float]]
) -> None:
    """Cumulative ``le`` bucket counts must be non-decreasing per series."""
    groups: dict[tuple, list[tuple[float, float]]] = {}
    for labels, value in samples:
        le = labels.get("le")
        if le is None:
            raise ValueError(f"{name}: bucket sample without le label")
        bound = float("inf") if le == "+Inf" else float(le)
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        groups.setdefault(key, []).append((bound, value))
    for key, buckets in groups.items():
        buckets.sort()
        last = -1.0
        for bound, value in buckets:
            if value < last:
                raise ValueError(
                    f"{name}{dict(key)}: bucket counts not monotonic at le={bound}"
                )
            last = value
