"""``repro.obs`` — dependency-free observability for the serving stack.

Three pillars, all stdlib-only:

* **Metrics** (:mod:`repro.obs.metrics`): a thread-safe
  :class:`MetricsRegistry` of :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` instruments with labeled series and Prometheus
  text-format exposition (:meth:`MetricsRegistry.expose`), plus a
  strict :func:`parse_prometheus_text` used by the tests and CI to
  prove the exposition is well-formed.

* **Tracing** (:mod:`repro.obs.tracing`): :class:`Span` /
  :class:`SpanRecorder` — true parent/child span trees with monotonic
  timestamps and a per-request id.  The translation pipeline's
  admin-mode trace is built on these, which is what lets per-stage
  accounting sum *leaf* spans instead of maintaining subsumption lists.

* **Slow-query log** (:mod:`repro.obs.slowlog`): a bounded ring of the
  span trees of translations that crossed a latency threshold.

Quickstart::

    from repro.obs import MetricsRegistry
    from repro.service import TranslationService

    registry = MetricsRegistry()
    service = TranslationService(registry=registry)
    service.translate_batch(questions)
    print(registry.expose())          # Prometheus text format

See ``docs/observability.md`` for the metric catalog and span
semantics.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.tracing import Span, SpanRecorder, new_request_id

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "SpanRecorder",
    "new_request_id",
    "parse_prometheus_text",
]
