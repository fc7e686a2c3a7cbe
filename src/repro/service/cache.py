"""Bounded, thread-safe LRU cache for translation results.

Serving workloads repeat themselves: the same questions come back from
different users (and the same user retries phrasings), so the single
biggest lever for throughput is never running the Figure-2 pipeline
twice for the same input.  The cache key combines the *normalized*
question text (whitespace runs collapsed — case is preserved, because
capitalization drives proper-noun detection) with the interaction
provider's *fingerprint*: two requests only share a result when the
provider would have answered every clarification dialog identically.

The cache never mutates cached results; callers share the returned
:class:`~repro.core.pipeline.TranslationResult` objects read-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry

__all__ = ["CacheStats", "TranslationCache"]

#: A cache key: (normalized question text, interaction fingerprint).
CacheKey = tuple[str, str]


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot; hit rate is hits / (hits + misses).

    ``insertions`` counts entries actually added (refreshing an
    existing key is not an insertion) — it is what
    :meth:`~repro.service.service.TranslationService.warm` reports.
    ``warmed`` counts entries replayed by :meth:`TranslationCache.seed`
    (the warm-restart protocol); they are deliberately **not**
    insertions, so ``warm()`` reporting and insertion rates measure
    real traffic only.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    insertions: int = 0
    warmed: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class TranslationCache:
    """A bounded LRU map from (question, fingerprint) to results.

    Args:
        capacity: maximum number of cached translations; the least
            recently *used* (looked up or inserted) entry is evicted
            when a new entry would exceed it.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._insertions = 0
        self._warmed = 0
        self._registries: list[MetricsRegistry] = []

    # -- metrics ----------------------------------------------------------------

    def bind_registry(self, registry: "MetricsRegistry") -> None:
        """Expose this cache's counters through ``registry``.

        Every series is a lock-free callback over the cache's own
        counters, so the registry reads exactly what :meth:`stats`
        reports (through :meth:`clear` and :meth:`reset_counters` too),
        the lookup path never touches the registry, and a scrape never
        takes the cache lock.  Binding is idempotent per registry;
        several caches bound to one registry sum.
        """
        if any(bound is registry for bound in self._registries):
            return
        self._registries.append(registry)
        registry.counter(
            "nl2cm_cache_lookups_total",
            "Translation cache lookups by result (hit/miss).",
            labelnames=("result",),
            callback=lambda: {("hit",): self._hits, ("miss",): self._misses},
        )
        registry.counter(
            "nl2cm_cache_evictions_total",
            "Translation cache LRU evictions.",
            callback=lambda: self._evictions,
        )
        registry.counter(
            "nl2cm_cache_insertions_total",
            "Translation cache entries actually inserted "
            "(refreshes excluded).",
            callback=lambda: self._insertions,
        )
        registry.counter(
            "nl2cm_cache_warmed_total",
            "Entries replayed into the cache by the warm-restart "
            "protocol (seed); counted separately from insertions so "
            "traffic rates stay honest.",
            callback=lambda: self._warmed,
        )
        registry.gauge(
            "nl2cm_cache_size",
            "Translations currently cached.",
            callback=lambda: float(len(self._entries)),
        )
        registry.gauge(
            "nl2cm_cache_capacity",
            "Translation cache capacity.",
            callback=lambda: float(self.capacity),
        )

    # -- keys -------------------------------------------------------------------

    @staticmethod
    def normalize(text: str) -> str:
        """Collapse whitespace runs; keep case (it carries signal)."""
        return " ".join(text.split())

    @classmethod
    def make_key(cls, text: str, fingerprint: str) -> CacheKey:
        return (cls.normalize(text), fingerprint)

    # -- lookup / insert ----------------------------------------------------------

    def get(self, text: str, fingerprint: str) -> Any | None:
        """The cached result, or None; counts a hit or a miss."""
        key = self.make_key(text, fingerprint)
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return result

    def put(self, text: str, fingerprint: str, result: Any) -> bool:
        """Insert (or refresh) an entry, evicting the LRU if full.

        Returns True when a new entry was **inserted**, False when an
        existing key was merely refreshed — the distinction the
        ``insertions`` counter is built on.
        """
        key = self.make_key(text, fingerprint)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = result
                return False
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = result
            self._insertions += 1
            return True

    # -- warm restarts ------------------------------------------------------------

    def seed(
        self, entries: Iterable[tuple[str, str, Any]]
    ) -> tuple[int, int]:
        """Replay (text, fingerprint, result) triples into the cache.

        The warm-restart counterpart of :meth:`put`, with its own
        accounting and the same refusal rules the live cache path
        applies: degraded results and results whose lint report carries
        errors are **refused** (they were never cacheable, so an entry
        offering one is stale or suspect data).  Seeded entries are
        counted on their own ``warmed`` counter — never as hits, misses
        or insertions — so hit rates and ``warm()`` reporting keep
        measuring real traffic.  Existing keys are left
        untouched (neither warmed nor refused: the live entry wins).

        Returns ``(warmed, refused)``.
        """
        warmed = 0
        refused = 0
        for text, fingerprint, result in entries:
            trace = getattr(result, "trace", None)
            if trace is not None and getattr(trace, "degraded", False):
                refused += 1
                continue
            lint = getattr(result, "lint", None)
            if lint is not None and getattr(lint, "has_errors", False):
                refused += 1
                continue
            key = self.make_key(text, fingerprint)
            with self._lock:
                if key in self._entries:
                    continue
                while len(self._entries) >= self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
                self._entries[key] = result
                self._warmed += 1
            warmed += 1
        return warmed, refused

    # -- introspection ------------------------------------------------------------

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
                insertions=self._insertions,
                warmed=self._warmed,
            )

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0
            self._evictions = self._insertions = self._warmed = 0

    def reset_counters(self) -> None:
        """Zero hit/miss/eviction/insertion/warmed counters; entries kept."""
        with self._lock:
            self._hits = self._misses = 0
            self._evictions = self._insertions = self._warmed = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries
