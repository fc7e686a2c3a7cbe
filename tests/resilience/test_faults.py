"""The deterministic fault-injection harness."""

import pytest

from repro.errors import InjectedFault, ReproError
from repro.resilience import FaultPlan, FlakyInteraction
from repro.ui.interaction import AutoInteraction, LimitRequest


class TestFaultPlan:
    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(rate=-0.1)

    def test_scheduled_indices_always_fail(self):
        plan = FaultPlan(fail_indices=frozenset({0, 2}))
        assert plan.should_fail(0)
        assert not plan.should_fail(1)
        assert plan.should_fail(2)

    def test_rate_zero_never_fails(self):
        plan = FaultPlan(rate=0.0)
        assert not any(
            plan.should_fail(i, key=("q", i)) for i in range(100)
        )

    def test_rate_one_always_fails(self):
        plan = FaultPlan(rate=1.0)
        assert all(
            plan.should_fail(i, key=("q", i)) for i in range(100)
        )

    def test_rate_decisions_are_seed_deterministic(self):
        a = FaultPlan(rate=0.3, seed=7)
        b = FaultPlan(rate=0.3, seed=7)
        c = FaultPlan(rate=0.3, seed=8)
        decisions_a = [a.should_fail(i, key=("q", i)) for i in range(200)]
        decisions_b = [b.should_fail(i, key=("q", i)) for i in range(200)]
        decisions_c = [c.should_fail(i, key=("q", i)) for i in range(200)]
        assert decisions_a == decisions_b
        assert decisions_a != decisions_c
        assert any(decisions_a) and not all(decisions_a)

    def test_make_error_uses_configured_type_and_message(self):
        plan = FaultPlan(error_type=TimeoutError, message="provider down")
        err = plan.make_error("call #3")
        assert isinstance(err, TimeoutError)
        assert "provider down" in str(err)
        assert "call #3" in str(err)


class TestFaultPlanParse:
    def test_rate_and_seed(self):
        plan = FaultPlan.parse("rate=0.3,seed=7")
        assert plan.rate == 0.3
        assert plan.seed == 7
        assert plan.error_type is InjectedFault

    def test_indices_and_error_type(self):
        plan = FaultPlan.parse("indices=0:2:5,error=runtime")
        assert plan.fail_indices == frozenset({0, 2, 5})
        assert plan.error_type is RuntimeError

    def test_message_and_blanks_tolerated(self):
        plan = FaultPlan.parse(" rate=0.1 , message=flaky network ")
        assert plan.rate == 0.1
        assert plan.message == "flaky network"

    @pytest.mark.parametrize("spec", [
        "rate",                  # not key=value
        "bogus=1",               # unknown key
        "error=nonsense",        # unknown error type
        "rate=lots",             # unparsable value
        "rate=2.0",              # out of range
    ])
    def test_malformed_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


class TestFlakyInteraction:
    def request(self):
        return LimitRequest(description="results")

    def test_scheduled_failures_then_delegate(self):
        flaky = FlakyInteraction(
            AutoInteraction(), FaultPlan(fail_indices=frozenset({0})),
        )
        with pytest.raises(InjectedFault):
            flaky.ask(self.request())
        assert flaky.ask(self.request()) == 5
        assert flaky.calls == 2
        assert flaky.failures == 1

    def test_injected_fault_is_a_library_error(self):
        flaky = FlakyInteraction(
            AutoInteraction(), FaultPlan(fail_indices=frozenset({0})),
        )
        with pytest.raises(ReproError):
            flaky.ask(self.request())

    def test_schedule_keyed_by_question_not_global_order(self):
        plan = FaultPlan(rate=0.5, seed=3)
        a1 = FlakyInteraction(AutoInteraction(), plan, key="question a")
        a2 = FlakyInteraction(AutoInteraction(), plan, key="question a")
        outcomes = []
        for flaky in (a1, a2):
            run = []
            for _ in range(20):
                try:
                    flaky.ask(self.request())
                    run.append(True)
                except InjectedFault:
                    run.append(False)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
