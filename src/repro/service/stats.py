"""The service's counter snapshot: :class:`ServiceStats` and its stages.

A :class:`ServiceStats` is a view over one metrics snapshot, built by
:meth:`ServiceStats.from_samples`.  It lives apart from the service so
the serving tier's front end, which merges the workers' snapshots, can
read it without importing the translator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.service.cache import CacheStats

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs.metrics import Samples

__all__ = ["ServiceStats", "StageStat"]


@dataclass(frozen=True)
class StageStat:
    """Aggregate self-time of one pipeline stage.

    ``leaf`` is True for real pipeline work (childless spans); False
    for the self-time of aggregate spans (``ix-detection``) and the
    ``pipeline-overhead`` series.  Totals over *all* stages — leaf or
    not — sum to ``busy_seconds``.
    """

    total_seconds: float
    count: int
    leaf: bool = True

    @property
    def mean_ms(self) -> float:
        return self.total_seconds / self.count * 1000 if self.count else 0.0


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of the service's counters.

    A view over a metrics snapshot (:meth:`from_samples`): one
    service's registry, one shard's lifetime, or the merged serving
    tier all read through the same field mapping.

    Attributes:
        requests: translation requests served (all outcomes).
        translated: fresh translations actually run through the pipeline.
        served_from_cache: requests answered by a cache lookup.
        deduplicated: batch single-flight followers that shared a
            leader's result within one batch (not cache hits; counted
            even when caching is disabled).
        errors: requests that raised a translation/verification error.
        batches: ``translate_batch`` calls completed.
        batch_questions: questions served through batches.
        batch_seconds: wall-clock seconds spent inside batch calls.
        busy_seconds: summed per-translation pipeline wall time
            (overlaps under concurrency, so this is per-worker time,
            not wall).
        stages: per-stage self-time aggregates of fresh translations;
            ``sum(s.total_seconds for s in stages.values())`` equals
            ``busy_seconds`` (up to float rounding).
        cache: cache counters, or None when caching is disabled.
        workers: the configured fan-out width.
        lint_errors: ERROR-level lint diagnostics across fresh
            translations (including ones that raised ``QueryLintError``).
        lint_warnings: WARNING-level lint diagnostics, same scope.
        lint_infos: INFO-level lint diagnostics, same scope.
        kb_lint_errors: ERROR-level diagnostics of the translator's
            construction-time knowledge-base lint (0 when the
            translator was built with ``kb_lint="off"``).
        kb_lint_warnings: WARNING-level KB lint diagnostics, same scope.
        kb_lint_infos: INFO-level KB lint diagnostics, same scope.
        slow_queries: translations retained by the slow-query log.
        degraded: fresh translations that served at least one
            interaction from the resilience fallback (a subset of
            ``translated`` — degraded requests still produce a result).
        retries: interaction-provider retry attempts.
        breaker_rejections: interaction calls rejected by an open
            circuit breaker.
        plan_cache_hits: BGP plan-cache hits of the translator's query
            planner (``NL2CM.planner``).
        plan_cache_misses: plan-cache misses (first sight of a query
            shape), same scope.
        plan_cache_invalidations: cached plans dropped because the
            store's mutation epoch moved, same scope.
        plans_compiled: plans built (misses + invalidations), same
            scope.
    """

    requests: int
    translated: int
    served_from_cache: int
    deduplicated: int
    errors: int
    batches: int
    batch_questions: int
    batch_seconds: float
    busy_seconds: float
    stages: dict[str, StageStat]
    cache: CacheStats | None
    workers: int
    lint_errors: int = 0
    lint_warnings: int = 0
    lint_infos: int = 0
    kb_lint_errors: int = 0
    kb_lint_warnings: int = 0
    kb_lint_infos: int = 0
    slow_queries: int = 0
    degraded: int = 0
    retries: int = 0
    breaker_rejections: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_invalidations: int = 0
    plans_compiled: int = 0

    @property
    def plan_cache_hit_rate(self) -> float:
        """Hit fraction of plan-cache lookups (0.0 before any lookup)."""
        lookups = (
            self.plan_cache_hits + self.plan_cache_misses
            + self.plan_cache_invalidations
        )
        return self.plan_cache_hits / lookups if lookups else 0.0

    @property
    def accounted(self) -> int:
        """The outcome sum; equals ``requests`` at every instant."""
        return (
            self.translated + self.served_from_cache
            + self.deduplicated + self.errors
        )

    @property
    def mean_translation_ms(self) -> float:
        if not self.translated:
            return 0.0
        return self.busy_seconds / self.translated * 1000

    @property
    def batch_throughput_qps(self) -> float:
        """Questions/sec over the wall time spent in batch calls."""
        if not self.batch_seconds:
            return 0.0
        return self.batch_questions / self.batch_seconds

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate if self.cache else 0.0

    @classmethod
    def from_samples(cls, samples: Samples) -> "ServiceStats":
        """The view over one metrics snapshot — the only way to build one.

        ``samples`` is a :meth:`~repro.obs.metrics.MetricsRegistry.samples`
        snapshot, a parsed exposition, or a merge of several (one
        service, one shard's lifetime, the whole tier).  An absent
        series reads as zero, so the empty snapshot is the all-zero view
        with ``0.0`` rates; ``cache`` is None unless the snapshot has
        the cache's counter families.
        """
        flat = {
            key: value
            for family in samples.values()
            for key, value in family["samples"].items()
        }

        def value(name: str, **labels: str) -> float:
            return flat.get((name, tuple(sorted(labels.items()))), 0.0)

        def count(name: str, **labels: str) -> int:
            return int(value(name, **labels))

        stages = {}
        for (name, pairs), total in flat.items():
            if name == "nl2cm_stage_seconds_sum":
                labels = dict(pairs)
                stages[labels["stage"]] = StageStat(
                    total, int(flat[("nl2cm_stage_seconds_count", pairs)]),
                    leaf=labels["kind"] == "leaf",
                )
        lookups = "nl2cm_cache_lookups_total"
        cache = CacheStats(
            hits=count(lookups, result="hit"),
            misses=count(lookups, result="miss"),
            evictions=count("nl2cm_cache_evictions_total"),
            size=count("nl2cm_cache_size"),
            capacity=count("nl2cm_cache_capacity"),
            insertions=count("nl2cm_cache_insertions_total"),
            warmed=count("nl2cm_cache_warmed_total"),
        ) if lookups in samples else None
        outcome = "nl2cm_request_outcomes_total"
        lint = "nl2cm_lint_diagnostics_total"
        kb_lint = "nl2cm_kb_lint_diagnostics"
        plans = "planner_plan_cache_total"
        return cls(
            requests=count("nl2cm_requests_total"),
            translated=count(outcome, outcome="translated"),
            served_from_cache=count(outcome, outcome="cache_hit"),
            deduplicated=count(outcome, outcome="deduplicated"),
            errors=count(outcome, outcome="error"),
            batches=count("nl2cm_batches_total"),
            batch_questions=count("nl2cm_batch_questions_total"),
            batch_seconds=value("nl2cm_batch_seconds_total"),
            busy_seconds=value("nl2cm_translate_seconds_sum"),
            stages=stages,
            cache=cache,
            workers=count("nl2cm_workers"),
            lint_errors=count(lint, severity="error"),
            lint_warnings=count(lint, severity="warning"),
            lint_infos=count(lint, severity="info"),
            kb_lint_errors=count(kb_lint, severity="error"),
            kb_lint_warnings=count(kb_lint, severity="warning"),
            kb_lint_infos=count(kb_lint, severity="info"),
            slow_queries=count("nl2cm_slow_queries_total"),
            degraded=count("repro_degraded_total"),
            retries=count("nl2cm_retries_total"),
            breaker_rejections=count("nl2cm_breaker_rejections_total"),
            plan_cache_hits=count(plans, result="hit"),
            plan_cache_misses=count(plans, result="miss"),
            plan_cache_invalidations=count(plans, result="invalidated"),
            plans_compiled=count("planner_plans_compiled_total"),
        )
