"""Service observability: registry wiring, exposition, honest counters.

The acceptance spine of the observability layer:

* a warmed 50-question batch's exposition round-trips through the
  strict Prometheus text parser;
* per-stage self-time sums agree with ``busy_seconds`` within 1%
  (the span model makes them agree exactly);
* ``warm()`` reports entries actually inserted;
* batch single-flight duplicates are ``deduplicated``, not
  ``served_from_cache`` — even with caching disabled.
"""

import pytest

from repro import MetricsRegistry, NL2CM, TranslationService
from repro.data.corpus import supported_questions
from repro.data.ontologies import load_merged_ontology
from repro.errors import ReproError
from repro.obs import SlowQueryLog, parse_prometheus_text


@pytest.fixture(scope="module")
def ontology():
    return load_merged_ontology()


@pytest.fixture(scope="module")
def corpus_texts():
    return [q.text for q in supported_questions()]


@pytest.fixture(scope="module")
def warmed(ontology, corpus_texts):
    """A service whose cache was warmed, then hit with 50 questions."""
    registry = MetricsRegistry()
    service = TranslationService(
        NL2CM(ontology=ontology), workers=8, cache=256,
        registry=registry,
    )
    inserted = service.warm(corpus_texts)
    # 50 questions: the corpus cycled, so every one is a cache hit.
    batch = [corpus_texts[i % len(corpus_texts)] for i in range(50)]
    items = service.translate_batch(batch)
    # Snapshot immediately: later tests keep using the service.
    return service, registry, inserted, items, service.stats()


class TestWarmedBatchExposition:
    def test_warm_reports_entries_actually_inserted(
        self, warmed, corpus_texts
    ):
        _, _, inserted, _, _ = warmed
        assert inserted == len(corpus_texts)

    def test_batch_served_entirely_without_fresh_translations(
        self, warmed
    ):
        _, _, _, items, stats = warmed
        assert all(item.ok for item in items)
        assert stats.translated == len(supported_questions())
        assert stats.served_from_cache + stats.deduplicated == 50
        assert stats.served_from_cache <= stats.cache.hits

    def test_second_warm_inserts_nothing(self, warmed, corpus_texts):
        service, _, _, _, _ = warmed
        assert service.warm(corpus_texts) == 0

    def test_exposition_round_trips_through_parser(self, warmed):
        _, registry, _, _, _ = warmed
        parsed = parse_prometheus_text(registry.expose())
        assert parsed["nl2cm_requests_total"]["type"] == "counter"
        assert parsed["nl2cm_translate_seconds"]["type"] == "histogram"
        samples = parsed["nl2cm_request_outcomes_total"]["samples"]
        total = parsed["nl2cm_requests_total"]["samples"][
            ("nl2cm_requests_total", ())
        ]
        assert sum(samples.values()) == total
        # Histogram series are complete: +Inf bucket == count.
        h = parsed["nl2cm_translate_seconds"]["samples"]
        assert h[
            ("nl2cm_translate_seconds_bucket", (("le", "+Inf"),))
        ] == h[("nl2cm_translate_seconds_count", ())]

    def test_stage_sums_agree_with_busy_seconds_within_1pct(
        self, warmed
    ):
        service, registry, _, _, _ = warmed
        stats = service.stats()
        stage_total = sum(
            s.total_seconds for s in stats.stages.values()
        )
        assert stats.busy_seconds > 0
        assert stage_total == pytest.approx(
            stats.busy_seconds, rel=0.01
        )
        # And the same holds for the raw exposed histogram sums.
        parsed = parse_prometheus_text(registry.expose())
        exposed = sum(
            value
            for (name, _), value
            in parsed["nl2cm_stage_seconds"]["samples"].items()
            if name == "nl2cm_stage_seconds_sum"
        )
        busy = parsed["nl2cm_translate_seconds"]["samples"][
            ("nl2cm_translate_seconds_sum", ())
        ]
        assert exposed == pytest.approx(busy, rel=0.01)

    def test_cache_gauges_reflect_live_state(self, warmed):
        service, registry, _, _, _ = warmed
        size = registry.get("nl2cm_cache_size")
        assert size.value() == float(len(service.cache))
        capacity = registry.get("nl2cm_cache_capacity")
        assert capacity.value() == 256.0


class TestHonestCounters:
    def test_duplicates_without_cache_count_as_deduplicated(
        self, ontology
    ):
        service = TranslationService(
            NL2CM(ontology=ontology), workers=4, cache=None
        )
        question = "Where do you visit in Buffalo?"
        items = service.translate_batch([question] * 4)
        assert all(item.ok for item in items)
        stats = service.stats()
        assert stats.translated == 1
        assert stats.deduplicated == 3
        assert stats.served_from_cache == 0  # there is no cache
        assert stats.cache is None
        assert stats.requests == stats.accounted == 4

    def test_errors_deduplicate_too(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology), workers=4, cache=8
        )
        items = service.translate_batch(
            ["How many parks are in Buffalo?"] * 3
        )
        assert not any(item.ok for item in items)
        stats = service.stats()
        assert stats.errors == 3
        assert stats.deduplicated == 0
        assert stats.requests == stats.accounted == 3

    def test_warm_excludes_rejected_questions(self, ontology):
        service = TranslationService(NL2CM(ontology=ontology), cache=8)
        inserted = service.warm([
            "Where do you visit in Buffalo?",
            "How many parks are in Buffalo?",   # unsupported: no entry
            "Where do you visit in Buffalo?",   # duplicate: no entry
        ])
        assert inserted == 1

    def test_warm_without_cache_rejected(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology), cache=None
        )
        with pytest.raises(ReproError, match="caching disabled"):
            service.warm(["Where do you visit in Buffalo?"])

    def test_reset_stats_zeroes_registry_and_cache_counters(
        self, ontology
    ):
        registry = MetricsRegistry()
        service = TranslationService(
            NL2CM(ontology=ontology), cache=8, registry=registry
        )
        service.translate("Where do you visit in Buffalo?")
        service.translate("Where do you visit in Buffalo?")
        assert service.stats().requests == 2
        service.reset_stats()
        stats = service.stats()
        assert stats.requests == 0
        assert stats.cache.hits == stats.cache.misses == 0
        assert stats.cache.size == 1  # entries survive the reset
        # The registry keeps its registrations, just zeroed.
        assert registry.get("nl2cm_requests_total").value() == 0.0


class TestSlowLogIntegration:
    def test_threshold_zero_logs_every_fresh_translation(
        self, ontology
    ):
        slow = SlowQueryLog(threshold_ms=0)
        service = TranslationService(
            NL2CM(ontology=ontology), cache=8, slow_log=slow
        )
        question = "Where do you visit in Buffalo?"
        service.translate(question)
        service.translate(question)  # cache hit: no pipeline, no entry
        assert slow.seen == 1
        assert service.stats().slow_queries == 1
        entry = slow.entries()[0]
        assert entry.text == question
        assert "ix-detection" in entry.tree

    def test_threshold_filters(self, ontology):
        service = TranslationService(
            NL2CM(ontology=ontology), cache=8, slow_log=10_000.0
        )
        service.translate("Where do you visit in Buffalo?")
        assert service.slow_log.seen == 0
        assert service.stats().slow_queries == 0


class TestSharedRegistry:
    def test_two_services_aggregate_into_one_registry(self, ontology):
        registry = MetricsRegistry()
        nl2cm = NL2CM(ontology=ontology)
        a = TranslationService(nl2cm, cache=8, registry=registry)
        b = TranslationService(nl2cm, cache=8, registry=registry)
        a.translate("Where do you visit in Buffalo?")
        b.translate("Where do you visit in Buffalo?")
        assert registry.get("nl2cm_requests_total").value() == 2.0
        # Each service's stats view reads the shared totals.
        assert a.stats().requests == b.stats().requests == 2


class TestStatsIsARegistryView:
    def test_cache_and_planner_fields_match_their_own_counters(
        self, ontology, corpus_texts
    ):
        """stats() reads the registry, never the cache or planner; the
        mirrored series must agree with their own counters."""
        from repro.rdf.planner import TriplePattern
        from repro.rdf.terms import IRI, Variable

        nl2cm = NL2CM(ontology=ontology)
        service = TranslationService(nl2cm, workers=4, cache=16)
        service.translate_batch(corpus_texts)
        service.translate_batch(corpus_texts[:10])
        for text in corpus_texts[:5]:
            service.translate(text)
        bgp = [TriplePattern(
            Variable("x"), IRI("http://repro.example/kb/instanceOf"),
            IRI("http://repro.example/kb/Place"),
        )]
        for _ in range(3):
            list(nl2cm.planner.solutions(ontology.store, bgp))

        stats = service.stats()
        assert stats.cache == service.cache.stats()
        assert stats.cache.hits and stats.cache.evictions
        plans = nl2cm.planner.snapshot()
        assert plans.hits == 2
        assert (
            stats.plan_cache_hits, stats.plan_cache_misses,
            stats.plan_cache_invalidations, stats.plans_compiled,
        ) == (plans.hits, plans.misses, plans.invalidations, plans.compiled)

    @staticmethod
    def _plan_fields(stats):
        return (
            stats.plan_cache_hits, stats.plan_cache_misses,
            stats.plan_cache_invalidations, stats.plans_compiled,
        )

    @staticmethod
    def _place_lookups(nl2cm, ontology, n):
        from repro.rdf.planner import TriplePattern
        from repro.rdf.terms import IRI, Variable

        bgp = [TriplePattern(
            Variable("x"), IRI("http://repro.example/kb/instanceOf"),
            IRI("http://repro.example/kb/Place"),
        )]
        for _ in range(n):
            list(nl2cm.planner.solutions(ontology.store, bgp))

    def test_translator_shared_by_two_registries(self, ontology):
        """Each service's view reads the planner's whole count, lookups
        made before either service was built included."""
        nl2cm = NL2CM(ontology=ontology)
        self._place_lookups(nl2cm, ontology, 2)
        a = TranslationService(nl2cm, cache=None)
        b = TranslationService(nl2cm, cache=None)
        self._place_lookups(nl2cm, ontology, 3)
        plans = nl2cm.planner.snapshot()
        assert plans.hits == 4
        expected = (
            plans.hits, plans.misses, plans.invalidations, plans.compiled
        )
        assert self._plan_fields(a.stats()) == expected
        assert self._plan_fields(b.stats()) == expected

    def test_reset_stats_keeps_planner_counts(self, ontology):
        """reset_stats() zeroes the service and its cache, not the
        translator's planner (whose counters it does not own)."""
        nl2cm = NL2CM(ontology=ontology)
        service = TranslationService(nl2cm, cache=8)
        self._place_lookups(nl2cm, ontology, 2)
        service.reset_stats()
        assert self._plan_fields(service.stats()) == (1, 1, 0, 1)

    def test_cache_clear_reads_through(self, ontology, corpus_texts):
        service = TranslationService(NL2CM(ontology=ontology), cache=4)
        service.translate_batch(corpus_texts[:6] * 2)
        assert service.stats().cache.evictions
        service.cache.clear()
        stats = service.stats()
        assert stats.cache == service.cache.stats()
        assert stats.cache.hits == stats.cache.size == 0

    def test_shared_registry_sums_every_cache(self, ontology):
        """Two caches on one registry: every cache field of the view is
        the sum of both, size and capacity included."""
        registry = MetricsRegistry()
        nl2cm = NL2CM(ontology=ontology)
        a = TranslationService(nl2cm, cache=8, registry=registry)
        b = TranslationService(nl2cm, cache=4, registry=registry)
        question = "Where do you visit in Buffalo?"
        a.translate(question)
        a.translate(question)
        b.translate(question)
        left, right = a.cache.stats(), b.cache.stats()
        for service in (a, b):
            cache = service.stats().cache
            assert (cache.hits, cache.misses) == (1, 2)
            assert cache.size == left.size + right.size == 2
            assert cache.capacity == left.capacity + right.capacity == 12
            assert service.stats().served_from_cache <= cache.hits
        # The shared translator's planner is bound once, not twice.
        self._place_lookups(nl2cm, ontology, 2)
        plans = nl2cm.planner.snapshot()
        assert plans.hits >= 1
        assert self._plan_fields(a.stats()) == (
            plans.hits, plans.misses, plans.invalidations, plans.compiled
        )


def test_exposition_carries_callback_series(ontology):
    """The registry's exposition shows callback-backed series (the
    cache's counters and gauges) beside recorded ones."""
    service = TranslationService(NL2CM(ontology=ontology), cache=8)
    service.translate("Where do you visit in Buffalo?")
    service.translate("Where do you visit in Buffalo?")
    parsed = parse_prometheus_text(service.registry.expose())
    lookups = parsed["nl2cm_cache_lookups_total"]["samples"]
    assert lookups[
        ("nl2cm_cache_lookups_total", (("result", "hit"),))
    ] == 1.0
    assert parsed["nl2cm_cache_size"]["samples"][
        ("nl2cm_cache_size", ())
    ] == 1.0
    assert parsed["nl2cm_translate_seconds"]["samples"][
        ("nl2cm_translate_seconds_count", ())
    ] == 1.0
