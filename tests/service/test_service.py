"""Service-level tests: concurrency determinism, caching, stats.

The determinism test is the contract the E9 throughput bench relies on:
a shared translator behind an 8-worker batch must produce byte-identical
queries to a one-at-a-time loop, question for question.
"""

import threading

import pytest

from repro import NL2CM, TranslationService, VerificationError
from repro.data.corpus import supported_questions
from repro.data.ontologies import load_merged_ontology
from repro.errors import ReproError
from repro.freya.generator import FeedbackStore
from repro.rdf.terms import IRI
from repro.service import TranslationCache
from repro.ui.interaction import AutoInteraction, ScriptedInteraction


@pytest.fixture(scope="module")
def ontology():
    return load_merged_ontology()


@pytest.fixture(scope="module")
def corpus_texts():
    return [q.text for q in supported_questions()]


class TestDeterminism:
    def test_sequential_and_concurrent_batch_agree(
        self, ontology, corpus_texts
    ):
        sequential = NL2CM(ontology=ontology)
        expected = [sequential.translate(t).query_text
                    for t in corpus_texts]

        service = TranslationService(
            NL2CM(ontology=ontology), workers=8, cache=512
        )
        items = service.translate_batch(corpus_texts, workers=8)

        assert [i.text for i in items] == corpus_texts
        assert all(i.ok for i in items)
        assert [i.query_text for i in items] == expected

    def test_repeated_batches_stay_identical(self, ontology, corpus_texts):
        texts = corpus_texts[:10]
        service = TranslationService(
            NL2CM(ontology=ontology), workers=8, cache=512
        )
        first = [i.query_text for i in service.translate_batch(texts)]
        second = [i.query_text for i in service.translate_batch(texts)]
        assert first == second


class TestCachingBehaviour:
    def test_cache_hit_returns_same_result_object(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology), cache=8)
        text = "Where do you visit in Buffalo?"
        first = service.translate(text)
        second = service.translate(text)
        assert first is second
        stats = service.stats()
        assert stats.translated == 1
        assert stats.served_from_cache == 1
        assert stats.cache.hits == 1

    def test_whitespace_variants_share_an_entry(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology), cache=8)
        first = service.translate("Where do you visit in Buffalo?")
        second = service.translate("Where  do you visit   in Buffalo?")
        assert first is second

    def test_single_flight_dedup_in_one_batch(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology), workers=4, cache=8
        )
        text = "Where do you visit in Buffalo?"
        items = service.translate_batch([text] * 6)
        assert all(i.ok for i in items)
        assert len({id(i.result) for i in items}) == 1
        assert service.stats().translated == 1

    def test_scripted_provider_bypasses_cache(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology), cache=8)
        text = "Where do you visit in Buffalo?"
        provider = ScriptedInteraction([])
        first = service.translate(text, provider)
        second = service.translate(text, provider)
        assert first is not second
        assert service.stats().served_from_cache == 0

    def test_cache_disabled_service(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology), cache=None)
        text = "Where do you visit in Buffalo?"
        first = service.translate(text)
        second = service.translate(text)
        assert first is not second
        assert service.stats().cache is None

    def test_warm_then_serve_from_cache(self, ontology, corpus_texts):
        texts = corpus_texts[:5]
        service = TranslationService(
            NL2CM(ontology=ontology), workers=4, cache=64
        )
        warmed = service.warm(texts)
        assert warmed == len(texts)
        service.reset_stats()
        items = service.translate_batch(texts)
        assert all(i.ok for i in items)
        stats = service.stats()
        assert stats.translated == 0
        assert stats.served_from_cache == len(texts)
        assert stats.cache_hit_rate == 1.0

    def test_warm_requires_cache(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology), cache=None)
        with pytest.raises(ReproError):
            service.warm(["Where do you visit in Buffalo?"])

    def test_lru_eviction_limits_entries(self, ontology, corpus_texts):
        service = TranslationService(
            NL2CM(ontology=ontology), workers=2,
            cache=TranslationCache(capacity=3),
        )
        service.translate_batch(corpus_texts[:6])
        stats = service.stats()
        assert stats.cache.size == 3
        assert stats.cache.evictions == 3


class TestErrorsAndStats:
    def test_translate_raises_and_counts_errors(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology), cache=8)
        with pytest.raises(VerificationError):
            service.translate("How many parks are in Buffalo?")
        stats = service.stats()
        assert stats.errors == 1
        assert stats.translated == 0
        # Errors are never cached.
        assert stats.cache.size == 0

    def test_batch_captures_errors_per_item(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology), workers=4, cache=8
        )
        items = service.translate_batch([
            "Where do you visit in Buffalo?",
            "How many parks are in Buffalo?",
            "Where do you visit in Buffalo?",
        ])
        assert items[0].ok and items[2].ok
        assert not items[1].ok
        assert isinstance(items[1].error, VerificationError)
        assert items[0].query_text == items[2].query_text

    def test_stage_aggregates_cover_the_pipeline(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology), cache=8)
        service.translate("Where do you visit in Buffalo?")
        stats = service.stats()
        stages = stats.stages
        for stage in ("verification", "nl-parsing", "ix-detection",
                      "query-composition", "final-query"):
            assert stages[stage].count == 1
            assert stages[stage].total_seconds >= 0.0
        # Stage totals are *self-times*: ix-detection's covering
        # duration lives in the trace; its StageStat only carries its
        # own orchestration time, marked non-leaf.
        assert not stages["ix-detection"].leaf
        assert stages["ix-finder"].leaf and stages["ix-creator"].leaf
        assert "pipeline-overhead" in stages
        # Self-times tile each request: the regression the span model
        # exists to enforce — stage totals can never exceed the busy
        # time (the old flat trace double-counted ix-detection here).
        total = sum(s.total_seconds for s in stages.values())
        assert total <= stats.busy_seconds + 1e-9
        assert total == pytest.approx(stats.busy_seconds, rel=1e-6)

    def test_workers_must_be_positive(self, ontology):
        with pytest.raises(ValueError):
            TranslationService(NL2CM(ontology=ontology), workers=0)


class TestFeedbackStoreConcurrency:
    def test_concurrent_record_and_boost(self):
        store = FeedbackStore()
        errors: list[Exception] = []

        def writer(worker: int) -> None:
            try:
                for i in range(300):
                    store.record(
                        f"phrase {worker} {i % 10}",
                        IRI(f"http://x/e{worker}-{i % 10}"),
                    )
                    store.boost(f"phrase {worker} {i % 10}", [])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # 8 workers x 10 distinct phrases each survived the storm.
        assert len(store.snapshot()) == 80

    def test_shared_feedback_store_is_per_translator_state(self):
        store = FeedbackStore()
        store.record("buffalo", IRI("http://x/Buffalo_NY"))
        assert store.snapshot() == {"buffalo": IRI("http://x/Buffalo_NY")}
        # Equality ignores the lock.
        assert FeedbackStore(choices=dict(store.snapshot())) == store

    def test_auto_interaction_fingerprint_is_stable(self):
        a = AutoInteraction()
        b = AutoInteraction()
        assert a.cache_fingerprint() == b.cache_fingerprint()
        assert (AutoInteraction(default_limit=3).cache_fingerprint()
                != a.cache_fingerprint())


class TestUnexpectedExceptionAudit:
    """Regression: a non-ReproError escaping the translator used to
    corrupt the outcome books and poison the batch executor."""

    QUESTION = "Where do you go hiking in the winter?"

    class BrokenProvider:
        """A provider whose first ask raises a programming error."""

        def __init__(self):
            self.calls = 0

        def ask(self, request):
            self.calls += 1
            raise RuntimeError("bug in the provider")

    def test_single_translate_counts_then_reraises_raw(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology))
        with pytest.raises(RuntimeError):
            service.translate(self.QUESTION, self.BrokenProvider())
        stats = service.stats()
        assert stats.errors == 1
        assert stats.requests == stats.accounted == 1

    def test_batch_wraps_per_item_and_keeps_identity(self, ontology):
        from repro.errors import UnexpectedTranslationError

        service = TranslationService(NL2CM(ontology=ontology), workers=3)
        questions = [
            self.QUESTION,
            "Which museums are popular with locals?",
            "Do you like the Buffalo Zoo?",
        ]
        items = service.translate_batch(
            questions, interaction=self.BrokenProvider(),
        )
        assert len(items) == 3
        for item in items:
            assert not item.ok
            assert isinstance(item.error, UnexpectedTranslationError)
            assert isinstance(item.error, ReproError)
            assert isinstance(item.error.cause, RuntimeError)
        stats = service.stats()
        assert stats.errors == 3
        assert stats.requests == stats.accounted == 3

        # The executor survived: the same service still translates.
        healthy = service.translate_batch([self.QUESTION])
        assert healthy[0].ok
        stats = service.stats()
        assert stats.requests == stats.accounted == 4


class TestPlannerStats:
    def test_plan_cache_counters_surface_in_stats(self, ontology):
        from repro.rdf.planner import TriplePattern
        from repro.rdf.terms import Variable

        nl2cm = NL2CM(ontology=ontology)
        service = TranslationService(nl2cm, cache=None)
        bgp = [TriplePattern(
            Variable("x"), IRI("http://repro.example/kb/instanceOf"),
            IRI("http://repro.example/kb/Place"),
        )]
        list(nl2cm.planner.solutions(ontology.store, bgp))
        list(nl2cm.planner.solutions(ontology.store, bgp))
        stats = service.stats()
        assert stats.plan_cache_misses == 1
        assert stats.plan_cache_hits == 1
        assert stats.plans_compiled == 1
        assert stats.plan_cache_hit_rate == 0.5
        # The counters are also mirrored into the service registry.
        cache = service.registry.get("planner_plan_cache_total")
        assert cache.value(result="hit") == 1

    def test_admin_panel_shows_plan_line(self, ontology):
        from repro.rdf.planner import TriplePattern
        from repro.rdf.terms import Variable
        from repro.ui.admin import render_service_stats

        nl2cm = NL2CM(ontology=ontology)
        service = TranslationService(nl2cm, cache=None)
        bgp = [TriplePattern(
            Variable("x"), IRI("http://repro.example/kb/instanceOf"),
            Variable("t"),
        )]
        list(nl2cm.planner.solutions(ontology.store, bgp))
        panel = render_service_stats(service.stats())
        assert "query plans: 1 compiled" in panel
