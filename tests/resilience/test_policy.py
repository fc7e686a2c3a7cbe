"""The backoff schedule and Deadline: deterministic, never sleeping."""

import pytest

from repro.errors import DeadlineExceeded, InteractionRequired, ReproError
from repro.resilience import (
    Deadline,
    FaultPlan,
    FlakyInteraction,
    ResilientInteraction,
    backoff_delay,
    seeded_uniform,
)
from repro.resilience.policy import BASE_DELAY, JITTER, MAX_DELAY, MULTIPLIER
from repro.ui.interaction import AutoInteraction, ThresholdRequest


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSeededUniform:
    def test_in_unit_interval(self):
        for i in range(200):
            u = seeded_uniform("key", i)
            assert 0.0 <= u < 1.0

    def test_deterministic(self):
        assert seeded_uniform(7, "q", 3) == seeded_uniform(7, "q", 3)

    def test_key_sensitive(self):
        draws = {seeded_uniform("k", i) for i in range(50)}
        assert len(draws) == 50


class TestDeadline:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-0.1)

    def test_remaining_counts_down(self):
        clock = FakeClock()
        d = Deadline(2.0, clock=clock)
        assert d.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert d.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert d.remaining() < 0

    def test_check_passes_within_budget(self):
        d = Deadline(60.0, clock=FakeClock())
        d.check("nl-parsing")  # no raise

    def test_check_raises_typed_error_with_context(self):
        clock = FakeClock()
        d = Deadline(0.25, clock=clock)
        clock.advance(0.4)
        with pytest.raises(DeadlineExceeded) as exc_info:
            d.check("ix-detection")
        err = exc_info.value
        assert isinstance(err, ReproError)
        assert err.stage == "ix-detection"
        assert err.budget == pytest.approx(0.25)
        assert err.elapsed == pytest.approx(0.4)
        assert "ix-detection" in str(err)


#: The pauses the CLI's ``--retries`` path slept before the backoff
#: settings became module constants, recorded from
#: ``ResilienceConfig(seed=s).policy().delay(i, key=k)`` for attempts
#: 0-2.  A change to the schedule shifts every CLI retry.
PINNED_SCHEDULE = {
    (0, "ThresholdRequest"):
        [0.03246645052826829, 0.07497594378157241, 0.19978105709120964],
    (0, "DisambiguationRequest"):
        [0.0332132074981024, 0.09273050650054451, 0.13962346519422605],
    (7, "ThresholdRequest"):
        [0.035338452959574, 0.07126557792650896, 0.19845903002781295],
    (7, "DisambiguationRequest"):
        [0.03125080664484275, 0.07564462860392453, 0.12589451637832982],
}


class TestBackoffSchedule:
    @pytest.mark.parametrize("seed, key", sorted(PINNED_SCHEDULE))
    def test_production_schedule_is_pinned(self, seed, key):
        assert [
            backoff_delay(i, key, seed) for i in range(3)
        ] == PINNED_SCHEDULE[seed, key]

    def test_without_jitter_pure_exponential(self):
        # Undo the seeded jitter: what is left is the capped exponential.
        raw = [
            backoff_delay(i, "q", 3)
            / (1.0 - JITTER * seeded_uniform(3, "q", i))
            for i in range(8)
        ]
        assert raw == pytest.approx(
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        )

    def test_jitter_shrinks_but_never_grows_the_pause(self):
        for attempt in range(8):
            raw = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** attempt)
            d = backoff_delay(attempt, "q", 3)
            assert raw * (1.0 - JITTER) <= d <= raw

    def test_schedule_is_seed_deterministic(self):
        def schedule(seed):
            return [backoff_delay(i, "same question", seed) for i in range(3)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)


class Scripted:
    """A provider that raises the scripted errors in turn, then answers."""

    def __init__(self, *errors: BaseException, answer=0.5):
        self.errors = list(errors)
        self.answer = answer
        self.calls = 0

    def ask(self, request):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.answer


class TestRun:
    """The one retry loop (``ResilientInteraction.ask``) on the schedule."""

    def guarded(self, inner, sleeps, seed=0):
        return ResilientInteraction(
            inner, fallback=AutoInteraction(), seed=seed,
            sleep=sleeps.append,
        )

    def test_returns_first_success(self):
        sleeps: list[float] = []
        guarded = self.guarded(AutoInteraction(), sleeps)
        assert guarded.ask(ThresholdRequest(description="x")) == 0.1
        assert sleeps == []

    def test_retries_transient_failures(self):
        sleeps: list[float] = []
        flaky = FlakyInteraction(
            AutoInteraction(), FaultPlan(fail_indices=frozenset({0, 1})),
        )
        guarded = self.guarded(flaky, sleeps, seed=7)
        assert guarded.ask(ThresholdRequest(description="x")) == 0.1
        assert flaky.calls == 3
        assert not guarded.degraded
        assert sleeps == PINNED_SCHEDULE[7, "ThresholdRequest"][:2]

    def test_non_retryable_raises_immediately(self):
        # A non-retryable error is not retried: one call, no pause, and
        # the loop hands the request to the fallback at once.
        sleeps: list[float] = []
        broken = Scripted(KeyError("programming bug"))
        guarded = self.guarded(broken, sleeps)
        assert guarded.ask(ThresholdRequest(description="x")) == 0.1
        assert broken.calls == 1
        assert sleeps == []
        assert [e.reason for e in guarded.events] == ["retries-exhausted"]
        assert "KeyError" in guarded.events[0].error

    def test_exhaustion_reraises_last_error(self):
        # After the last retry the loop records the *last* provider error
        # on the degradation event and answers from the fallback.
        sleeps: list[float] = []
        always = Scripted(
            InteractionRequired("first"), InteractionRequired("second"),
            InteractionRequired("last"),
        )
        guarded = ResilientInteraction(
            always, fallback=AutoInteraction(), retries=2,
            sleep=sleeps.append,
        )
        assert guarded.ask(ThresholdRequest(description="x")) == 0.1
        assert always.calls == 3
        assert len(sleeps) == 2
        (event,) = guarded.events
        assert event.reason == "retries-exhausted"
        assert "last" in event.error

    def test_on_retry_hook_sees_attempt_and_error(self):
        # The hook fires once per retry, before the pause for that attempt.
        sleeps: list[float] = []
        seen: list[int] = []
        flaky = Scripted(ConnectionError("fail 1"), ConnectionError("fail 2"))
        guarded = ResilientInteraction(
            flaky, fallback=AutoInteraction(), retries=2,
            sleep=sleeps.append,
            on_retry=lambda: seen.append(len(sleeps)),
        )
        assert guarded.ask(ThresholdRequest(description="x")) == 0.5
        assert seen == [0, 1]
        assert guarded.retries == 2
        assert not guarded.degraded
