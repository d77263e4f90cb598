"""Async serving subsystem: coalescing answer service + HTTP front.

The serving story, module by module:

* :mod:`repro.serve.async_answerer` — :class:`AsyncAnswerer`: answer-cache
  hits answered on the event loop (no queue, task or thread hop), and for
  misses in-flight request coalescing on the normalized-question key,
  micro-batching into ``answer_many``, bounded-queue admission control,
  deadlines, epoch-checked freshness under live KB updates;
* :mod:`repro.serve.app` — :class:`KBQAServer`: the stdlib asyncio HTTP
  front (one ``asyncio.Protocol`` per connection over the sans-IO parser
  of :mod:`repro.serve.http`; ``/answer``, ``/batch``, ``/facts``,
  ``/healthz``, ``/stats``, ``/metrics``) behind ``kbqa serve``, plus
  :class:`BackgroundServer` and the CI smoke;
* :mod:`repro.serve.metrics` — the telemetry spine: mergeable log-bucket
  latency histograms, per-stage timers, bounded per-tenant counters,
  Prometheus text exposition;
* :mod:`repro.serve.multiproc` — :class:`MultiProcessServer`: N forked
  server replicas sharing one port via ``SO_REUSEPORT``, with writes
  replicated through a shared op log + epoch counter (``kbqa serve
  --procs N``);
* :mod:`repro.serve.faults` — the deterministic fault-injection harness
  (``KBQA_FAULTS``) that lets tests kill a replica on cue.
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
from repro.serve.app import BackgroundServer, KBQAServer, result_payload, run_smoke
from repro.serve.metrics import (
    Histogram,
    ServeMetrics,
    merge_states,
    parse_prometheus_text,
    render_prometheus,
)
from repro.serve.multiproc import MultiProcessServer, multiproc_available

__all__ = [
    "AnswerTarget",
    "AsyncAnswerer",
    "BackgroundServer",
    "DeadlineExceeded",
    "Histogram",
    "KBQAServer",
    "MultiProcessServer",
    "OverloadedError",
    "ServeConfig",
    "ServeMetrics",
    "ServeStats",
    "merge_states",
    "multiproc_available",
    "normalized_key",
    "parse_prometheus_text",
    "render_prometheus",
    "result_payload",
    "run_smoke",
]
