"""Unit tests for the bounded LRU translation cache."""

import threading
from types import SimpleNamespace

import pytest

from repro.service.cache import TranslationCache
from repro.service.service import SeededTranslation

FP = "auto:limit=5:threshold=0.1"


def _result(query_text="SELECT VARIABLES", degraded=False,
            lint_errors=False):
    """A minimal cached-value stand-in with the duck-typed surface the
    warm-restart protocol inspects."""
    return SimpleNamespace(
        query_text=query_text,
        trace=SimpleNamespace(degraded=degraded),
        lint=SimpleNamespace(has_errors=lint_errors),
    )


class TestKeying:
    def test_whitespace_normalized(self):
        cache = TranslationCache(capacity=4)
        cache.put("Where  do you\tvisit in Buffalo?", FP, "r")
        assert cache.get("Where do you visit in Buffalo?", FP) == "r"

    def test_case_preserved(self):
        # Capitalization drives proper-noun detection, so "buffalo"
        # and "Buffalo" must not share a cache slot.
        cache = TranslationCache(capacity=4)
        cache.put("Where do you visit in Buffalo?", FP, "proper")
        assert cache.get("where do you visit in buffalo?", FP) is None

    def test_fingerprint_partitions_entries(self):
        cache = TranslationCache(capacity=4)
        cache.put("q", "auto:limit=5:threshold=0.1", "five")
        cache.put("q", "auto:limit=3:threshold=0.1", "three")
        assert cache.get("q", "auto:limit=5:threshold=0.1") == "five"
        assert cache.get("q", "auto:limit=3:threshold=0.1") == "three"


class TestLRU:
    def test_eviction_order_is_least_recently_used(self):
        cache = TranslationCache(capacity=2)
        cache.put("a", FP, 1)
        cache.put("b", FP, 2)
        assert cache.get("a", FP) == 1   # refresh "a"
        cache.put("c", FP, 3)            # evicts "b"
        assert cache.get("b", FP) is None
        assert cache.get("a", FP) == 1
        assert cache.get("c", FP) == 3
        assert cache.stats().evictions == 1

    def test_capacity_bound_holds(self):
        cache = TranslationCache(capacity=3)
        for i in range(10):
            cache.put(f"q{i}", FP, i)
        assert len(cache) == 3
        assert cache.stats().evictions == 7

    def test_put_refreshes_existing_entry(self):
        cache = TranslationCache(capacity=2)
        cache.put("a", FP, 1)
        cache.put("b", FP, 2)
        cache.put("a", FP, 10)           # refresh, not insert
        cache.put("c", FP, 3)            # evicts "b", the LRU
        assert cache.get("a", FP) == 10
        assert cache.get("b", FP) is None

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TranslationCache(capacity=0)


class TestCounters:
    def test_hit_miss_counters_and_rate(self):
        cache = TranslationCache(capacity=4)
        assert cache.get("q", FP) is None
        cache.put("q", FP, "r")
        assert cache.get("q", FP) == "r"
        assert cache.get("q", FP) == "r"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_clear_and_reset(self):
        cache = TranslationCache(capacity=4)
        cache.put("a", FP, 1)
        cache.get("a", FP)
        cache.reset_counters()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 1)
        cache.clear()
        assert len(cache) == 0

    def test_empty_cache_hit_rate_is_zero(self):
        assert TranslationCache(capacity=1).stats().hit_rate == 0.0


class TestWarmRestartProtocol:
    def test_seed_counts_warmed_not_hits_or_insertions(self):
        cache = TranslationCache(capacity=8)
        warmed, refused = cache.seed([
            ("a", FP, _result()), ("b", FP, _result()),
        ])
        assert (warmed, refused) == (2, 0)
        stats = cache.stats()
        assert stats.warmed == 2
        assert stats.insertions == 0
        assert (stats.hits, stats.misses) == (0, 0)
        assert stats.hit_rate == 0.0
        assert stats.size == 2
        # Seeded entries serve real lookups like any other entry.
        assert cache.get("a", FP).query_text == "SELECT VARIABLES"

    def test_seed_refuses_degraded_and_lint_error_results(self):
        cache = TranslationCache(capacity=8)
        warmed, refused = cache.seed([
            ("bad1", FP, _result(degraded=True)),
            ("bad2", FP, _result(lint_errors=True)),
            ("good", FP, _result()),
        ])
        assert (warmed, refused) == (1, 2)
        assert cache.get("bad1", FP) is None
        assert cache.get("bad2", FP) is None
        assert cache.get("good", FP) is not None

    def test_seed_never_overwrites_a_live_entry(self):
        cache = TranslationCache(capacity=8)
        live = _result(query_text="LIVE")
        cache.put("q", FP, live)
        warmed, refused = cache.seed([("q", FP, _result("STALE"))])
        assert (warmed, refused) == (0, 0)
        assert cache.get("q", FP) is live

    def test_seed_respects_capacity_and_counts_evictions(self):
        cache = TranslationCache(capacity=2)
        warmed, _ = cache.seed([
            (f"q{i}", FP, _result()) for i in range(5)
        ])
        assert warmed == 5
        assert len(cache) == 2
        assert cache.stats().evictions == 3

    def test_clear_and_reset_zero_warmed(self):
        cache = TranslationCache(capacity=4)
        cache.seed([("a", FP, _result())])
        cache.reset_counters()
        assert cache.stats().warmed == 0
        cache.seed([("b", FP, _result())])
        cache.clear()
        assert cache.stats().warmed == 0

    def test_export_seed_roundtrip_between_caches(self):
        # Wire entries shaped the way the shard manager builds them from
        # its shadow index, rebuilt as the worker's seed path does.
        entries = [
            {"text": name, "fingerprint": FP, "query": f"Q-{name}"}
            for name in ("a", "b", "c")
        ]
        fresh = TranslationCache(capacity=8)
        warmed, refused = fresh.seed([
            (
                entry["text"],
                entry["fingerprint"],
                SeededTranslation(
                    text=entry["text"], query_text=entry["query"]
                ),
            )
            for entry in entries
        ])
        assert (warmed, refused) == (3, 0)
        assert fresh.get("b", FP).query_text == "Q-b"


class TestThreadSafety:
    def test_concurrent_put_get_respects_capacity(self):
        cache = TranslationCache(capacity=16)
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(200):
                    cache.put(f"q{worker}-{i % 24}", FP, i)
                    cache.get(f"q{worker}-{(i + 7) % 24}", FP)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        stats = cache.stats()
        assert stats.hits + stats.misses == 8 * 200
