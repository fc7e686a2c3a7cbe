"""ResilientInteraction: retry, degrade, breaker."""

import pytest

from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    FlakyInteraction,
    ResilientInteraction,
)
from repro.ui.interaction import AutoInteraction, LimitRequest


def guard(inner, **kwargs):
    """A wrapper that never sleeps, degrading to AutoInteraction()."""
    kwargs.setdefault("fallback", AutoInteraction())
    return ResilientInteraction(inner, sleep=lambda s: None, **kwargs)


def request():
    return LimitRequest(description="results")


class TestResilientInteraction:
    def test_healthy_provider_passes_through(self):
        guarded = guard(AutoInteraction(default_limit=9))
        assert guarded.ask(request()) == 9
        assert not guarded.degraded
        assert guarded.retries == 0

    def test_transient_faults_are_retried_away(self):
        flaky = FlakyInteraction(
            AutoInteraction(default_limit=9),
            FaultPlan(fail_indices=frozenset({0, 1})),
        )
        retried = []
        guarded = guard(flaky, on_retry=lambda: retried.append(1))
        assert guarded.ask(request()) == 9
        assert not guarded.degraded
        assert guarded.retries == 2
        assert len(retried) == 2

    def test_exhausted_retries_degrade_to_fallback(self):
        flaky = FlakyInteraction(AutoInteraction(), FaultPlan(rate=1.0))
        guarded = guard(
            flaky, retries=2, fallback=AutoInteraction(default_limit=77),
        )
        assert guarded.ask(request()) == 77
        assert guarded.degraded
        assert guarded.retries == 2
        (event,) = guarded.events
        assert event.request == "LimitRequest"
        assert event.reason == "retries-exhausted"
        assert "InjectedFault" in event.error

    def test_non_retryable_error_degrades_immediately(self):
        flaky = FlakyInteraction(
            AutoInteraction(),
            FaultPlan(rate=1.0, error_type=RuntimeError),
        )
        guarded = guard(flaky, fallback=AutoInteraction(default_limit=5))
        assert guarded.ask(request()) == 5
        assert guarded.retries == 0
        assert guarded.degraded

    @pytest.mark.parametrize("error", ["timeout", "connection"])
    def test_transient_io_errors_are_retried(self, error):
        flaky = FlakyInteraction(
            AutoInteraction(default_limit=9),
            FaultPlan.parse(f"indices=0,error={error}"),
        )
        guarded = guard(flaky)
        assert guarded.ask(request()) == 9
        assert guarded.retries == 1
        assert not guarded.degraded

    def test_open_breaker_degrades_without_touching_provider(self):
        class Exploding:
            def ask(self, request):  # pragma: no cover - must not run
                raise AssertionError("provider touched behind open breaker")

        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        rejected = []
        guarded = guard(
            Exploding(),
            breaker=breaker,
            fallback=AutoInteraction(default_limit=5),
            on_rejected=lambda: rejected.append(1),
        )
        assert guarded.ask(request()) == 5
        (event,) = guarded.events
        assert event.reason == "circuit-open"
        assert event.error is None
        assert rejected == [1]

    def test_failures_feed_the_shared_breaker(self):
        breaker = CircuitBreaker(failure_threshold=2)
        flaky = FlakyInteraction(AutoInteraction(), FaultPlan(rate=1.0))
        rejected = []
        guarded = guard(
            flaky, retries=5, breaker=breaker,
            on_rejected=lambda: rejected.append(1),
        )
        guarded.ask(request())
        assert breaker.state == CircuitBreaker.OPEN
        # The second failure opened the circuit, so the retry it would
        # have earned is rejected instead of hammering the provider.
        assert guarded.retries == 1
        assert rejected == [1]

    def test_no_cache_fingerprint_by_design(self):
        guarded = guard(AutoInteraction())
        assert not hasattr(guarded, "cache_fingerprint")
