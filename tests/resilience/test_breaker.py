"""CircuitBreaker state machine, driven by a fake clock."""

import threading

import pytest

from repro.resilience import CircuitBreaker


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make(threshold=3, recovery=10.0, **kwargs):
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=threshold,
        recovery_seconds=recovery,
        clock=clock,
        **kwargs,
    )
    return breaker, clock


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(failure_threshold=0),
        dict(recovery_seconds=-1.0),
    ])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker, _ = make()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        assert breaker.state_code() == 0.0

    def test_opens_after_consecutive_failures(self):
        breaker, _ = make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.state_code() == 2.0

    def test_success_resets_the_failure_count(self):
        breaker, _ = make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_after_recovery_window(self):
        breaker, clock = make(threshold=1, recovery=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.state_code() == 1.0

    def test_half_open_admits_one_probe(self):
        breaker, clock = make(threshold=1, recovery=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else still rejected

    def test_probe_success_closes(self):
        breaker, clock = make(threshold=1, recovery=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_for_another_window(self):
        breaker, clock = make(threshold=5, recovery=10.0)
        for _ in range(5):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # one half-open failure is enough
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(5.0)
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()


class TestThreadSafety:
    def test_concurrent_failures_count_exactly(self):
        breaker, _ = make(threshold=10_000)
        threads = [
            threading.Thread(
                target=lambda: [breaker.record_failure()
                                for _ in range(500)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert breaker._failures == 4000
        assert breaker.state == CircuitBreaker.CLOSED
