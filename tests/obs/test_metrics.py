"""Metrics registry: instrument semantics and exposition round-trips."""

import math
import threading

import pytest

from repro.errors import MetricsError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    parse_prometheus_text,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        c = registry.counter("reqs_total", "requests")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("reqs_total", "requests")
        with pytest.raises(MetricsError, match="only increase"):
            c.inc(-1)

    def test_labeled_series_are_independent(self, registry):
        c = registry.counter("hits_total", "hits", labelnames=("kind",))
        c.labels(kind="a").inc()
        c.labels(kind="a").inc()
        c.labels(kind="b").inc()
        assert c.value(kind="a") == 2.0
        assert c.value(kind="b") == 1.0
        assert c.value(kind="never") == 0.0

    def test_labeled_family_rejects_bare_inc(self, registry):
        c = registry.counter("hits_total", "hits", labelnames=("kind",))
        with pytest.raises(MetricsError, match="use .labels"):
            c.inc()

    def test_wrong_label_names_rejected(self, registry):
        c = registry.counter("hits_total", "hits", labelnames=("kind",))
        with pytest.raises(MetricsError, match="takes labels"):
            c.labels(other="x")


class TestCallbacks:
    def test_labeled_callback_counter_reads_live_state(self, registry):
        state = {"hit": 2, "miss": 1}
        c = registry.counter(
            "lookups_total", "lookups", labelnames=("result",),
            callback=lambda: {(k,): v for k, v in state.items()},
        )
        state["hit"] = 5
        assert c.value(result="hit") == 5.0
        assert c.value(result="never") == 0.0
        text = registry.expose()
        assert 'lookups_total{result="hit"} 5' in text
        assert 'lookups_total{result="miss"} 1' in text

    def test_callbacks_bound_to_one_name_sum(self, registry):
        registry.gauge("size", "size", callback=lambda: 3)
        g = registry.gauge("size", "size", callback=lambda: 4)
        assert g.value() == 7.0
        assert "size 7" in registry.expose().splitlines()

    def test_callback_counter_cannot_be_incremented(self, registry):
        c = registry.counter("n_total", "n", callback=lambda: 1)
        with pytest.raises(MetricsError, match="cannot be set"):
            c.inc()

    def test_recording_family_refuses_a_callback(self, registry):
        registry.counter("n_total", "n").inc()
        with pytest.raises(MetricsError, match="already records"):
            registry.counter("n_total", "n", callback=lambda: 1)


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth", "queue depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value() == 13.0

    def test_callback_gauge_reads_live_state(self, registry):
        state = {"n": 3}
        g = registry.gauge(
            "live", "live", callback=lambda: float(state["n"])
        )
        assert g.value() == 3.0
        state["n"] = 7
        assert g.value() == 7.0

    def test_callback_gauge_cannot_be_set(self, registry):
        g = registry.gauge("live", "live", callback=lambda: 1.0)
        with pytest.raises(MetricsError, match="cannot be set"):
            g.set(2)

    def test_callback_gauge_survives_reset(self, registry):
        g = registry.gauge("live", "live", callback=lambda: 4.0)
        plain = registry.gauge("plain", "plain")
        plain.set(9)
        registry.reset()
        assert g.value() == 4.0
        assert plain.value() == 0.0


class TestHistogram:
    def test_observe_updates_sum_and_count(self, registry):
        h = registry.histogram("lat", "latency")
        h.observe(0.002)
        h.observe(0.004)
        assert h.count() == 2
        assert h.sum() == pytest.approx(0.006)

    def test_buckets_are_cumulative_and_end_at_inf(self, registry):
        h = registry.histogram(
            "lat", "latency", buckets=(0.01, 0.1, 1.0)
        )
        for v in (0.005, 0.05, 0.05, 5.0):
            h.observe(v)
        pairs = h.labels().cumulative_counts()
        assert pairs == [(0.01, 1), (0.1, 3), (1.0, 3), (math.inf, 4)]

    def test_le_semantics_value_on_boundary(self, registry):
        h = registry.histogram("lat", "latency", buckets=(0.01, 0.1))
        h.observe(0.01)  # le="0.01" must include the boundary
        assert h.labels().cumulative_counts()[0] == (0.01, 1)

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(MetricsError, match="strictly increase"):
            registry.histogram("lat", "l", buckets=(0.1, 0.01))

    def test_quantile_interpolates(self, registry):
        h = registry.histogram("lat", "l", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert 0.0 < h.labels().quantile(0.5) <= 2.0
        assert h.labels().quantile(0.0) == 0.0
        with pytest.raises(MetricsError):
            h.labels().quantile(1.5)

    def test_default_buckets_span_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.0001
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


class TestRegistry:
    def test_get_or_create_returns_same_family(self, registry):
        a = registry.counter("x_total", "x")
        b = registry.counter("x_total", "x")
        assert a is b
        assert len(registry) == 1

    def test_conflicting_reregistration_rejected(self, registry):
        registry.counter("x_total", "x")
        with pytest.raises(MetricsError, match="already registered"):
            registry.gauge("x_total", "x")
        with pytest.raises(MetricsError, match="already registered"):
            registry.counter("x_total", "x", labelnames=("l",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(MetricsError, match="invalid metric name"):
            registry.counter("9bad", "x")
        with pytest.raises(MetricsError, match="invalid label name"):
            registry.counter("ok_total", "x", labelnames=("9bad",))

    def test_reset_zeroes_values_but_keeps_registrations(self, registry):
        c = registry.counter("x_total", "x")
        c.inc(5)
        registry.reset()
        assert c.value() == 0.0
        assert registry.get("x_total") is c


class TestExposition:
    def test_round_trip_through_parser(self, registry):
        c = registry.counter("reqs_total", "requests",
                             labelnames=("outcome",))
        c.labels(outcome="ok").inc(3)
        c.labels(outcome="error").inc()
        g = registry.gauge("depth", "queue depth")
        g.set(2.5)
        h = registry.histogram("lat_seconds", "latency",
                               buckets=(0.01, 0.1))
        h.observe(0.05)

        parsed = parse_prometheus_text(registry.expose())
        assert parsed["reqs_total"]["type"] == "counter"
        assert parsed["reqs_total"]["samples"][
            ("reqs_total", (("outcome", "ok"),))
        ] == 3.0
        assert parsed["depth"]["samples"][("depth", ())] == 2.5
        hist = parsed["lat_seconds"]
        assert hist["type"] == "histogram"
        assert hist["samples"][
            ("lat_seconds_bucket", (("le", "+Inf"),))
        ] == 1.0
        assert hist["samples"][
            ("lat_seconds_sum", ())
        ] == pytest.approx(0.05)
        assert hist["samples"][("lat_seconds_count", ())] == 1.0

    def test_label_values_escaped_and_restored(self, registry):
        c = registry.counter("odd_total", "odd", labelnames=("q",))
        tricky = 'a"b\\c\nd'
        c.labels(q=tricky).inc()
        parsed = parse_prometheus_text(registry.expose())
        assert parsed["odd_total"]["samples"][
            ("odd_total", (("q", tricky),))
        ] == 1.0

    def test_expose_ends_with_newline(self, registry):
        registry.counter("x_total", "x").inc()
        text = registry.expose()
        assert text.endswith("\n")
        assert registry.expose() if text else True

    def test_empty_registry_exposes_empty(self, registry):
        assert registry.expose() == ""

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text("this is { not metrics")
        with pytest.raises(ValueError, match="malformed sample value"):
            parse_prometheus_text("x_total twelve")
        with pytest.raises(ValueError, match="unterminated"):
            parse_prometheus_text('x_total{l="oops} 1')


class TestThreadSafety:
    def test_concurrent_increments_do_not_lose_updates(self, registry):
        c = registry.counter("n_total", "n")
        h = registry.histogram("h_seconds", "h", buckets=(1.0,))

        def work():
            for _ in range(1000):
                c.inc()
                h.observe(0.5)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000.0
        assert h.count() == 8000
