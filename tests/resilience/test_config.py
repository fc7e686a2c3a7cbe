"""ResilienceConfig: the settings the CLI and the shard workers build."""

import dataclasses

import pytest

from repro.resilience import FaultPlan, ResilienceConfig


class TestResilienceConfig:
    def test_six_fields(self):
        assert [f.name for f in dataclasses.fields(ResilienceConfig)] == [
            "retries", "seed", "faults", "breaker_threshold", "clock",
            "sleep",
        ]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(retries=-1)

    def test_zero_retries_allowed(self):
        assert ResilienceConfig(retries=0).retries == 0

    def test_breaker_threshold_zero_disables_the_breaker(self):
        assert ResilienceConfig(breaker_threshold=0).breaker() is None
        breaker = ResilienceConfig().breaker()
        assert breaker.failure_threshold == 5
        assert breaker.recovery_seconds == 30.0


class TestFromFlags:
    def test_no_flags_means_no_resilience(self):
        assert ResilienceConfig.from_flags(None, 0, None) is None

    def test_retries_flag(self):
        config = ResilienceConfig.from_flags(2, 7, None)
        assert (config.retries, config.seed, config.faults) == (2, 7, None)

    def test_fault_plan_alone_retries_three_times(self):
        plan = FaultPlan(rate=0.3, seed=7)
        config = ResilienceConfig.from_flags(None, 0, plan)
        assert config.retries == 3
        assert config.faults is plan

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig.from_flags(-1, 0, None)
