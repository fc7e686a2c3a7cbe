"""Chaos suite: the serving layer under injected provider failures.

The headline scenario from the acceptance bar: a 50-question batch at a
30% injected interaction-failure rate with ``retries=3`` must come back
with every :class:`BatchItem` either ok, degraded-but-ok, or carrying a
typed error — none lost — while the outcome identity ::

    requests == translated + served_from_cache + deduplicated + errors

holds in *every* stats snapshot an observer thread can take, and the
whole run is bit-reproducible for a fixed seed.
"""

import threading

import pytest

from repro.core.pipeline import NL2CM
from repro.data.corpus import CORPUS
from repro.data.ontologies import load_merged_ontology
from repro.errors import (
    InteractionRequired,
    ReproError,
    UnexpectedTranslationError,
)
from repro.resilience import FaultPlan, ResilienceConfig
from repro.service import TranslationService
from repro.ui.interaction import ScriptedInteraction

#: Threshold-only questions (each asks exactly one ThresholdRequest),
#: so a scripted float answer is always type-correct.
THRESHOLD_QUESTIONS = [
    "Where do you go hiking in the winter?",
    "Which museums are popular with locals?",
    "Which hotel in Vegas should we stay at?",
    "Do you like the Buffalo Zoo?",
    "Is the Eiffel Tower beautiful in the winter?",
    "Which beaches are good for families?",
]


@pytest.fixture(scope="module")
def ontology():
    return load_merged_ontology()


def chaos_questions() -> list[str]:
    questions = [e.text for e in CORPUS if e.supported]
    questions.append(questions[0])  # one duplicate: dedup under chaos
    assert len(questions) == 50
    return questions


def chaos_config(**overrides) -> ResilienceConfig:
    # breaker_threshold=0 keeps the run schedule-independent: a shared
    # breaker couples requests across threads (by design), which is
    # exercised separately below.
    defaults = dict(
        retries=3,
        faults=FaultPlan(rate=0.3, seed=7),
        breaker_threshold=0,
        sleep=lambda s: None,
    )
    defaults.update(overrides)
    return ResilienceConfig(**defaults)


class IdentityObserver:
    """Samples stats() concurrently, recording identity violations."""

    def __init__(self, service: TranslationService):
        self.service = service
        self.violations: list[tuple[int, int]] = []
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            stats = self.service.stats()
            self.samples += 1
            if stats.requests != stats.accounted:
                self.violations.append(
                    (stats.requests, stats.accounted)
                )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)


def signature(items):
    return [
        (
            item.ok,
            item.degraded,
            item.query_text,
            type(item.error).__name__ if item.error else None,
        )
        for item in items
    ]


def run_chaos_batch(ontology, workers=4):
    service = TranslationService(
        NL2CM(ontology=ontology),
        workers=workers,
        resilience=chaos_config(),
    )
    with IdentityObserver(service) as observer:
        items = service.translate_batch(chaos_questions())
    return service, items, observer


class TestChaosHeadline:
    def test_no_item_lost_and_identity_holds(self, ontology):
        service, items, observer = run_chaos_batch(ontology)

        assert len(items) == 50
        for item in items:
            # Exactly one of result/error, i.e. nothing silently lost.
            assert (item.result is None) != (item.error is None)
            if item.error is not None:
                assert isinstance(item.error, ReproError)
            if item.degraded:
                assert item.ok

        stats = service.stats()
        assert stats.requests == 50
        assert stats.requests == stats.accounted
        assert observer.samples > 0
        assert observer.violations == []

        # The 30% fault rate actually bit: retries happened, and the
        # degraded counter agrees with the items.
        assert stats.retries > 0
        assert stats.degraded == sum(
            1 for item in items
            if item.degraded and not item.cached
        )

    def test_bit_reproducible_for_fixed_seed(self, ontology):
        _, first, _ = run_chaos_batch(ontology, workers=4)
        _, second, _ = run_chaos_batch(ontology, workers=2)
        # Same seed, different thread counts: byte-identical outcomes.
        assert signature(first) == signature(second)

    def test_shared_breaker_run_reproducible_on_one_worker(self, ontology):
        # With the breaker on, one question's failures can open the
        # circuit for the next, so outcomes depend on the order in which
        # questions fail: reproducible on one worker thread (the CLI's
        # --workers 1), not across thread counts.
        def run():
            service = TranslationService(
                NL2CM(ontology=ontology),
                workers=1,
                resilience=chaos_config(
                    breaker_threshold=5, clock=lambda: 0.0,
                ),
            )
            items = service.translate_batch(chaos_questions())
            return signature(items), service.stats()

        first, stats = run()
        second, _ = run()
        assert first == second
        assert stats.breaker_rejections > 0
        assert stats.requests == stats.accounted == 50


class TestDegradation:
    def test_degraded_results_are_never_cached(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology),
            resilience=chaos_config(faults=FaultPlan(rate=1.0)),
        )
        question = THRESHOLD_QUESTIONS[0]
        first = service.translate(question)
        assert first.trace.degraded
        second = service.translate(question)
        assert second.trace.degraded
        stats = service.stats()
        # Both runs were fresh translations; nothing was served from
        # the cache because a degraded result must not be cached.
        assert stats.translated == 2
        assert stats.served_from_cache == 0
        assert stats.degraded == 2
        assert service.cache.stats().insertions == 0


class TestForeignErrorFaults:
    def test_runtime_faults_degrade_gracefully(self, ontology):
        # RuntimeError is not retryable: the wrapper degrades at once
        # rather than burning retries on a programming error.
        service = TranslationService(
            NL2CM(ontology=ontology),
            resilience=chaos_config(
                faults=FaultPlan(rate=1.0, error_type=RuntimeError),
            ),
        )
        items = service.translate_batch(THRESHOLD_QUESTIONS[:2])
        assert all(item.ok and item.degraded for item in items)
        stats = service.stats()
        assert stats.retries == 0
        assert stats.requests == stats.accounted

    def test_runtime_faults_without_resilience_stay_typed(self, ontology):
        # No resilience layer at all: the injected RuntimeError escapes
        # the translator, and the batch wraps it per-item instead of
        # letting it poison the executor.
        from repro.resilience import FlakyInteraction
        from repro.ui.interaction import AutoInteraction

        provider = FlakyInteraction(
            AutoInteraction(),
            FaultPlan(rate=1.0, error_type=RuntimeError),
        )
        service = TranslationService(NL2CM(ontology=ontology))
        items = service.translate_batch(
            THRESHOLD_QUESTIONS[:2], interaction=provider,
        )
        assert all(
            isinstance(item.error, UnexpectedTranslationError)
            for item in items
        )
        stats = service.stats()
        assert stats.errors == 2
        assert stats.requests == stats.accounted == 2
        # The pool is not poisoned: the same service still serves.
        follow_up = service.translate_batch([THRESHOLD_QUESTIONS[0]])
        assert follow_up[0].ok


class TestBreakerIntegration:
    def test_breaker_opens_and_requests_degrade_fast(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology),
            workers=1,  # sequential: breaker transitions deterministic
            resilience=chaos_config(
                retries=1,
                breaker_threshold=2,
                clock=lambda: 0.0,  # frozen: the circuit never recovers
                faults=FaultPlan(rate=1.0),
            ),
        )
        items = service.translate_batch(THRESHOLD_QUESTIONS)
        assert all(item.ok and item.degraded for item in items)
        stats = service.stats()
        assert stats.breaker_rejections > 0
        assert stats.requests == stats.accounted
        assert service._r_breaker.state == "open"
        assert "nl2cm_breaker_state 2" in service.registry.expose()


class TestScriptExhaustionUnderBatch:
    def test_strict_script_exhausts_with_typed_errors(self, ontology):
        script = ScriptedInteraction([0.2, 0.3], strict=True)
        service = TranslationService(NL2CM(ontology=ontology), workers=4)
        items = service.translate_batch(
            THRESHOLD_QUESTIONS, interaction=script,
        )
        ok = [item for item in items if item.ok]
        failed = [item for item in items if not item.ok]
        # Each question asks exactly once, so exactly two answers land.
        assert len(ok) == 2
        assert len(failed) == 4
        assert all(
            isinstance(item.error, InteractionRequired)
            for item in failed
        )
        # Transcript is consistent: exactly the two scripted answers
        # were handed out, each to one request.
        assert [a for _, a in script.transcript] == [0.2, 0.3]
        stats = service.stats()
        assert stats.requests == stats.accounted == 6
        assert stats.errors == 4
