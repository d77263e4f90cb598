"""Async serving subsystem: micro-batching answer service + HTTP front.

The serving story, module by module:

* :mod:`repro.serve.async_answerer` — :class:`AsyncAnswerer`: answer-cache
  hits answered on the event loop (no queue, task or thread hop), and for
  misses one queue entry each, micro-batched into ``answer_many`` evaluated
  inline on the event loop, bounded-queue admission control, deadlines,
  writes ordered between two batches and epoch-checked freshness for writes
  from other threads;
* :mod:`repro.serve.app` — :class:`KBQAServer`: the stdlib asyncio HTTP
  front (one ``asyncio.Protocol`` per connection over the sans-IO parser
  of :mod:`repro.serve.http`; ``/answer``, ``/batch``, ``/facts``,
  ``/healthz``, ``/stats``, ``/metrics``) behind ``kbqa serve``, plus
  :class:`BackgroundServer`, its event-loop thread for synchronous callers;
* :mod:`repro.serve.metrics` — the telemetry spine: fixed log-bucket
  latency histograms, per-stage timers, bounded per-tenant counters,
  Prometheus text exposition.

Serving is one process and one event loop, which evaluates every batch
itself (DESIGN.md "Why serving evaluates on the loop").
"""

from repro.serve.async_answerer import (
    AnswerTarget,
    AsyncAnswerer,
    DeadlineExceeded,
    OverloadedError,
    ServeConfig,
    ServeStats,
    normalized_key,
)
from repro.serve.app import BackgroundServer, KBQAServer, result_payload
from repro.serve.metrics import Histogram, ServeMetrics, render_prometheus

__all__ = [
    "AnswerTarget",
    "AsyncAnswerer",
    "BackgroundServer",
    "DeadlineExceeded",
    "Histogram",
    "KBQAServer",
    "OverloadedError",
    "ServeConfig",
    "ServeMetrics",
    "ServeStats",
    "normalized_key",
    "render_prometheus",
    "result_payload",
]
