"""High-throughput translation service over a shared :class:`NL2CM`.

The translator itself is stateless after construction except for the
FREyA feedback store (which serializes its own mutations under a lock),
so one :class:`NL2CM` instance — with its ontology label indexes, IX
patterns and vocabularies built once — can serve many questions.  The
service adds the serving layer the paper's demo never needed:

* :meth:`TranslationService.translate` — single question, through a
  bounded LRU :class:`~repro.service.cache.TranslationCache`;
* :meth:`TranslationService.translate_batch` — fan-out over a
  ``ThreadPoolExecutor`` with single-flight deduplication (identical
  questions in one batch are translated once);
* :meth:`TranslationService.warm` — pre-translate a corpus so first
  user traffic is served from cache;
* :meth:`TranslationService.stats` — a :class:`ServiceStats` snapshot
  (request counters, cache hit rate, per-stage latency aggregates) for
  the admin monitor.

Every counter and latency distribution lives in a
:class:`~repro.obs.metrics.MetricsRegistry` (injectable; a private one
is built if omitted), exposed in Prometheus text format via
``registry.expose()``.  :meth:`stats` is a *view* derived
from the registry — the two can never disagree, because there is only
one set of numbers.  Request accounting distinguishes four disjoint
outcomes::

    requests == translated + served_from_cache + deduplicated + errors

where *deduplicated* counts batch single-flight followers (they share a
leader's in-batch result — that is not a cache hit, and is counted even
when caching is disabled).  Per-stage latency is aggregated from the
translation trace's span tree using **self-times** (a span's duration
minus its children's), which tile each request exactly: stage totals
always sum to ``busy_seconds``, with orchestration glue visible as the
``pipeline-overhead`` series instead of silently inflating a stage.

Results are returned in request order and are byte-identical to what a
sequential run of ``NL2CM.translate`` produces — determinism under
threading is part of the service contract (and under test).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.pipeline import NL2CM, TranslationResult, TranslationTrace
from repro.errors import (
    QueryLintError,
    ReproError,
    UnexpectedTranslationError,
)
from repro.obs.metrics import MetricsRegistry, Samples
from repro.obs.slowlog import SlowQueryLog
from repro.resilience import (
    FlakyInteraction,
    ResilienceConfig,
    ResilientInteraction,
)
from repro.service.cache import CacheStats, TranslationCache
from repro.ui.interaction import AutoInteraction, InteractionProvider

__all__ = [
    "BatchItem", "SeededTranslation", "ServiceStats", "StageStat",
    "TranslationService",
]

#: Stage name under which a request's orchestration glue (the root
#: span's self-time: span bookkeeping, artifact wiring) is accounted.
OVERHEAD_STAGE = "pipeline-overhead"


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


class _SeededTrace:
    """The trace stand-in every seeded entry shares: by construction a
    seeded result is never degraded (degraded results are refused at
    seed time, as they are at cache time)."""

    degraded = False
    degraded_events: tuple = ()


_SEEDED_TRACE = _SeededTrace()


@dataclass(frozen=True)
class SeededTranslation:
    """A cache entry rebuilt from a warm-restart seed frame.

    The warm-restart protocol ships only what survives the wire —
    the normalized question, the provider fingerprint, and the final
    OASSIS-QL text — not the dependency graph, IXs or span tree of the
    original :class:`~repro.core.pipeline.TranslationResult`.  Serving
    consumers read exactly ``query_text`` and ``trace.degraded`` from a
    cache hit, so a seeded entry answers repeat traffic byte-identically
    to the original; anything that needs the full artifact chain (the
    ``query`` AST, the trace's spans) re-translates instead.
    """

    text: str
    query_text: str
    #: Marks warm-restart provenance for debugging and tests.
    seeded: bool = True

    @property
    def trace(self) -> _SeededTrace:
        return _SEEDED_TRACE

    @property
    def lint(self) -> None:
        return None


@dataclass
class BatchItem:
    """One question's outcome within a batch (in request order)."""

    text: str
    result: TranslationResult | None = None
    error: ReproError | None = None
    cached: bool = False
    #: True when any of this item's interactions were answered by the
    #: resilience fallback (the shared leader's trace for followers).
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def query_text(self) -> str | None:
        return self.result.query_text if self.result else None


class TranslationService:
    """Concurrent, cached front-end to one shared translator.

    Args:
        nl2cm: the shared translator; a default one is built if omitted.
        workers: default fan-out width of :meth:`translate_batch`.
        cache: a :class:`TranslationCache`, a capacity for a fresh one,
            or None to disable caching entirely.
        interaction: default answer provider for requests that do not
            carry their own; falls back to the translator's provider.
        registry: the metrics registry to record into; a private one is
            built if omitted.  Injecting a shared registry gives one
            scrape endpoint for several components (service, cache,
            engine) — at the price that :meth:`reset_stats` zeroes the
            whole registry.
        slow_log: a :class:`~repro.obs.slowlog.SlowQueryLog`, or a
            threshold in milliseconds for a fresh one, or None to
            disable the slow-query log.
        resilience: a :class:`~repro.resilience.ResilienceConfig`
            enabling the fault-tolerance layer — interaction calls are
            retried with deterministic backoff behind a shared circuit
            breaker, and answered from the
            :class:`~repro.ui.interaction.AutoInteraction` defaults
            after retries are exhausted.  Degraded results are flagged
            on the trace and the :class:`BatchItem`, counted in
            ``repro_degraded_total``, and **never cached**.  ``None``
            (the default) adds zero overhead.
    """

    def __init__(
        self,
        nl2cm: NL2CM | None = None,
        *,
        workers: int = 4,
        cache: TranslationCache | int | None = 256,
        interaction: InteractionProvider | None = None,
        registry: MetricsRegistry | None = None,
        slow_log: SlowQueryLog | float | None = None,
        resilience: ResilienceConfig | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.nl2cm = nl2cm or NL2CM()
        self.workers = workers
        if isinstance(cache, int):
            cache = TranslationCache(capacity=cache)
        self.cache = cache
        self.interaction = interaction
        self.registry = registry if registry is not None else (
            MetricsRegistry()
        )
        if isinstance(slow_log, (int, float)):
            slow_log = SlowQueryLog(threshold_ms=float(slow_log))
        self.slow_log = slow_log
        self.resilience = resilience
        self._r_breaker = (
            resilience.breaker() if resilience is not None else None
        )
        self._r_fallback = AutoInteraction()
        self._lock = threading.Lock()
        self._build_metrics()
        if self.cache is not None:
            self.cache.bind_registry(self.registry)
        planner = getattr(self.nl2cm, "planner", None)
        if planner is not None:
            planner.bind_registry(self.registry)

    def _build_metrics(self) -> None:
        r = self.registry
        self._m_requests = r.counter(
            "nl2cm_requests_total",
            "Translation requests served (all outcomes).",
        )
        self._m_outcomes = r.counter(
            "nl2cm_request_outcomes_total",
            "Requests by outcome: translated, cache_hit, deduplicated, "
            "error.  Sums to nl2cm_requests_total.",
            labelnames=("outcome",),
        )
        self._m_translate = r.histogram(
            "nl2cm_translate_seconds",
            "Wall-clock seconds per fresh pipeline translation "
            "(the trace's root span).",
        )
        self._m_stage = r.histogram(
            "nl2cm_stage_seconds",
            "Per-stage self-time of fresh translations; kind is 'leaf' "
            "for real pipeline work, 'self' for aggregate spans' own "
            "time, 'overhead' for request orchestration glue.  Sums "
            "across all series equal nl2cm_translate_seconds_sum.",
            labelnames=("stage", "kind"),
        )
        self._m_batches = r.counter(
            "nl2cm_batches_total", "translate_batch calls completed.",
        )
        self._m_batch_questions = r.counter(
            "nl2cm_batch_questions_total",
            "Questions served through batches.",
        )
        self._m_batch_seconds = r.counter(
            "nl2cm_batch_seconds_total",
            "Wall-clock seconds spent inside translate_batch calls.",
        )
        self._m_lint = r.counter(
            "nl2cm_lint_diagnostics_total",
            "QueryLint diagnostics across fresh translations.",
            labelnames=("severity",),
        )
        self._m_kb_lint = r.gauge(
            "nl2cm_kb_lint_diagnostics",
            "Construction-time knowledge-base lint diagnostics of the "
            "shared translator (ontology + pattern bank), by severity. "
            "A gauge, not a counter: the KB is linted once per "
            "translator, so this mirrors that report, it does not "
            "accumulate.",
            labelnames=("severity",),
        )
        self._apply_kb_lint_gauges()
        self._m_slow = r.counter(
            "nl2cm_slow_queries_total",
            "Translations retained by the slow-query log.",
        )
        self._m_degraded = r.counter(
            "repro_degraded_total",
            "Translations that served at least one interaction from "
            "the resilience fallback (graceful degradation).",
        )
        self._m_retries = r.counter(
            "nl2cm_retries_total",
            "Interaction-provider retry attempts across fresh "
            "translations.",
        )
        self._m_breaker_rejections = r.counter(
            "nl2cm_breaker_rejections_total",
            "Interaction calls rejected by an open circuit breaker.",
        )
        r.gauge(
            "nl2cm_breaker_state",
            "Interaction breaker state: 0 closed, 1 half-open, 2 open "
            "(0 when no breaker is configured).",
            callback=lambda: (
                self._r_breaker.state_code()
                if self._r_breaker is not None else 0.0
            ),
        )
        r.gauge(
            "nl2cm_workers",
            "Configured batch fan-out width.",
            callback=lambda: float(self.workers),
        )
        # Hot-path child handles: skip the labels() validation on every
        # request.  Safe across reset_stats() because registry.reset()
        # zeroes children in place rather than dropping them.
        self._c_requests = self._m_requests.labels()
        self._c_translated = self._m_outcomes.labels(
            outcome="translated"
        )
        self._c_cache_hit = self._m_outcomes.labels(outcome="cache_hit")
        self._c_deduplicated = self._m_outcomes.labels(
            outcome="deduplicated"
        )
        self._c_error = self._m_outcomes.labels(outcome="error")
        self._h_translate = self._m_translate.labels()
        self._stage_children: dict[tuple[str, str], object] = {}

    # -- single-question path -------------------------------------------------------

    def translate(
        self,
        text: str,
        interaction: InteractionProvider | None = None,
    ) -> TranslationResult:
        """Translate one question, going through the cache when safe.

        Raises exactly what ``NL2CM.translate`` raises; errors are
        counted but never cached (a rephrasing tip costs nothing to
        recompute and should not occupy a slot).
        """
        provider = self._provider(interaction)
        fingerprint = self._fingerprint(provider)
        if self.cache is not None and fingerprint is not None:
            cached = self.cache.get(text, fingerprint)
            if cached is not None:
                with self._lock:
                    self._c_requests.inc()
                    self._c_cache_hit.inc()
                return cached
        return self._translate_fresh(text, provider, fingerprint)

    def _translate_fresh(
        self,
        text: str,
        provider: InteractionProvider,
        fingerprint: str | None,
    ) -> TranslationResult:
        guarded = self._guard(provider, text)
        try:
            result = self.nl2cm.translate(text, guarded or provider)
        except QueryLintError as err:
            with self._lock:
                self._c_requests.inc()
                self._c_error.inc()
                self._count_lint(err.report)
            raise
        except ReproError:
            with self._lock:
                self._c_requests.inc()
                self._c_error.inc()
            raise
        except Exception:
            # A non-library exception escaping the translator is a bug,
            # but it must not corrupt the books: count the outcome,
            # then re-raise as-is (translate_batch wraps it in
            # UnexpectedTranslationError for per-item capture).
            with self._lock:
                self._c_requests.inc()
                self._c_error.inc()
            raise
        trace = result.trace
        degraded = guarded is not None and guarded.degraded
        if degraded:
            trace.degraded_events = tuple(guarded.events)
        with self._lock:
            self._record_translation(trace)
            if degraded:
                self._m_degraded.inc()
            if result.lint is not None:
                self._count_lint(result.lint)
        if self.slow_log is not None and self.slow_log.record(text, trace):
            self._m_slow.inc()
        if (
            self.cache is not None
            and fingerprint is not None
            and not degraded
            and not (result.lint is not None and result.lint.has_errors)
        ):
            # A result with ERROR-level diagnostics must never be
            # served from cache: in lint="warn" mode it is returned to
            # this caller, but recomputing keeps the red flag visible
            # in the stats instead of amortizing it away.  Neither may
            # a degraded result: its answers came from the fallback,
            # not the configured provider, and a healthy retry should
            # get the real ones.
            self.cache.put(text, fingerprint, result)
        return result

    def _guard(
        self, provider: InteractionProvider, text: str
    ) -> ResilientInteraction | None:
        """The resilience wrapper for one fresh translation, or None.

        One wrapper (and one fault injector) per translation, keyed by
        the normalized question text — so an injected fault schedule
        depends only on the question and its per-translation call
        index, never on thread scheduling, and the wrapper's degradation
        events map 1:1 onto this request's trace.
        """
        config = self.resilience
        if config is None:
            return None
        inner = provider
        if config.faults is not None:
            inner = FlakyInteraction(
                inner, config.faults, key=TranslationCache.normalize(text),
            )
        return ResilientInteraction(
            inner,
            fallback=self._r_fallback,
            breaker=self._r_breaker,
            retries=config.retries,
            seed=config.seed,
            sleep=config.sleep,
            on_retry=self._m_retries.inc,
            on_rejected=self._m_breaker_rejections.inc,
        )

    def _record_translation(self, trace: TranslationTrace) -> None:
        """Record one fresh translation; the caller holds the lock."""
        self._c_requests.inc()
        self._c_translated.inc()
        self._h_translate.observe(trace.total_seconds())
        self._record_stages(trace)

    def _record_stages(self, trace: TranslationTrace) -> None:
        """Observe every span's self-time; self-times tile the request,
        so the per-stage sums reconstruct ``busy_seconds`` exactly."""
        children_elapsed: dict[int | None, float] = {}
        has_children: set[int] = set()
        for span in trace.spans:
            children_elapsed[span.parent_id] = (
                children_elapsed.get(span.parent_id, 0.0) + span.elapsed
            )
            if span.parent_id is not None:
                has_children.add(span.parent_id)
        for span in trace.spans:
            self_time = span.elapsed - children_elapsed.get(
                span.span_id, 0.0
            )
            if span.parent_id is None:
                stage, kind = OVERHEAD_STAGE, "overhead"
            elif span.span_id in has_children:
                stage, kind = span.name, "self"
            else:
                stage, kind = span.name, "leaf"
            child = self._stage_children.get((stage, kind))
            if child is None:
                child = self._m_stage.labels(stage=stage, kind=kind)
                self._stage_children[(stage, kind)] = child
            child.observe(self_time)

    def _apply_kb_lint_gauges(self) -> None:
        """Mirror the translator's KB lint report into the registry.

        Re-applied after :meth:`reset_stats` (a registry reset zeroes
        gauges, but the construction-time report still stands).
        """
        report = getattr(self.nl2cm, "kb_lint_report", None)
        for severity, count in (
            ("error", len(report.errors) if report else 0),
            ("warning", len(report.warnings) if report else 0),
            ("info", len(report.infos) if report else 0),
        ):
            self._m_kb_lint.labels(severity=severity).set(count)

    def _count_lint(self, report) -> None:
        for severity, diagnostics in (
            ("error", report.errors),
            ("warning", report.warnings),
            ("info", report.infos),
        ):
            if diagnostics:
                self._m_lint.labels(severity=severity).inc(
                    len(diagnostics)
                )

    # -- batch path -------------------------------------------------------------------

    def translate_batch(
        self,
        texts: Sequence[str],
        interaction: InteractionProvider | None = None,
        workers: int | None = None,
    ) -> list[BatchItem]:
        """Translate many questions concurrently; results in order.

        Identical questions (after normalization) are translated once
        per batch — single-flight — and every duplicate shares the
        leader's result (counted as ``deduplicated``, whether or not a
        cache is configured).  Translation errors are captured per item
        rather than raised, so one unsupported question does not sink
        the batch.
        """
        texts = list(texts)
        items = [BatchItem(text=t) for t in texts]
        if not texts:
            return items
        provider = self._provider(interaction)
        fingerprint = self._fingerprint(provider)
        width = workers if workers is not None else self.workers
        if width < 1:
            raise ValueError("workers must be >= 1")

        # Single-flight groups: all indexes that share a cache key run
        # once.  Without a usable fingerprint every question runs alone.
        groups: dict[object, list[int]] = {}
        if fingerprint is not None:
            for i, t in enumerate(texts):
                groups.setdefault(TranslationCache.normalize(t), []).append(i)
        else:
            groups = {i: [i] for i in range(len(texts))}

        start = time.perf_counter()

        def run_group(indices: list[int]) -> None:
            leader = indices[0]
            try:
                result = self.translate(texts[leader], provider)
                error = None
            except ReproError as exc:
                result, error = None, exc
            except Exception as exc:
                # The single-question path already counted the error
                # outcome; wrap the escape in a typed error so the
                # executor is never poisoned and the item stays
                # addressable like any other failure.
                result = None
                error = UnexpectedTranslationError(
                    f"translator raised a non-library error for "
                    f"{texts[leader]!r}: {exc!r}",
                    cause=exc,
                )
            degraded = result is not None and result.trace.degraded
            items[leader].result = result
            items[leader].error = error
            items[leader].degraded = degraded
            for i in indices[1:]:
                items[i].result = result
                items[i].error = error
                items[i].cached = error is None
                items[i].degraded = degraded
                with self._lock:
                    self._c_requests.inc()
                    if error is None:
                        self._c_deduplicated.inc()
                    else:
                        self._c_error.inc()

        group_lists = list(groups.values())
        if width == 1 or len(group_lists) == 1:
            for indices in group_lists:
                run_group(indices)
        else:
            with ThreadPoolExecutor(
                max_workers=min(width, len(group_lists))
            ) as pool:
                for future in [
                    pool.submit(run_group, g) for g in group_lists
                ]:
                    future.result()

        elapsed = time.perf_counter() - start
        with self._lock:
            self._m_batches.inc()
            self._m_batch_questions.inc(len(texts))
            self._m_batch_seconds.inc(elapsed)
        return items

    # -- warming ------------------------------------------------------------------------

    def warm(
        self,
        texts: Iterable[str],
        interaction: InteractionProvider | None = None,
        workers: int | None = None,
    ) -> int:
        """Pre-translate ``texts``; returns the number of cache entries
        actually **inserted** — duplicates, questions already cached,
        unsupported questions and lint-refused results are all excluded
        (they put nothing into the cache).  Unsupported questions are
        skipped, not raised: warming a corpus that contains a few
        rejects is routine."""
        if self.cache is None:
            raise ReproError("cannot warm a service with caching disabled")
        provider = self._provider(interaction)
        fingerprint = self._fingerprint(provider)
        if fingerprint is None:
            raise ReproError(
                "cannot warm the cache through a provider without a "
                "cache fingerprint (scripted/console providers are "
                "stateful)"
            )
        before = self.cache.stats().insertions
        self.translate_batch(
            list(texts), interaction=provider, workers=workers
        )
        return self.cache.stats().insertions - before

    # -- warm-restart protocol -----------------------------------------------------------

    def cache_fingerprint(self) -> str | None:
        """The default provider's cache identity, or None.

        This is the fingerprint every cache entry made through the
        default provider carries; the shard manager stamps it on the
        entries it replays into a restarted worker.
        """
        return self._fingerprint(self._provider(None))

    def seed_cache(self, entries: Iterable[dict]) -> tuple[int, int]:
        """Replay ``{"text", "fingerprint", "query"}`` entries into
        this service's cache.

        The receive side of the warm-restart protocol: each wire dict is
        rebuilt as a :class:`SeededTranslation` and handed to
        :meth:`TranslationCache.seed`, which refuses anything the live
        cache path would refuse and counts the rest on the dedicated
        ``warmed`` counter (never as hits or insertions).  Malformed
        entries — wrong shape, empty text/fingerprint/query — count as
        refused.  Returns ``(warmed, refused)``; ``(0, 0)`` with
        caching disabled.
        """
        if self.cache is None:
            return (0, 0)
        refused = 0
        triples = []
        for entry in entries:
            if not isinstance(entry, dict):
                refused += 1
                continue
            text = entry.get("text")
            fingerprint = entry.get("fingerprint")
            query = entry.get("query")
            if not (
                isinstance(text, str) and text
                and isinstance(fingerprint, str) and fingerprint
                and isinstance(query, str) and query
            ):
                refused += 1
                continue
            triples.append((
                text,
                fingerprint,
                SeededTranslation(text=text, query_text=query),
            ))
        warmed, bad = self.cache.seed(triples)
        return warmed, refused + bad

    # -- stats ---------------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot: the view over the metrics registry.

        The registry snapshot is taken under the service lock, so
        grouped counter updates (a request and its outcome) are never
        observed half-done; and because the cache counts a hit before
        the service counts the cache-served request, the atomic
        snapshot guarantees ``served_from_cache <= cache.hits``.
        """
        with self._lock:
            samples = self.registry.samples()
        return ServiceStats.from_samples(samples)

    def reset_stats(self) -> None:
        """Zero the counters (cache contents are kept).

        Resets the **whole** bound registry — with an injected shared
        registry this includes any other component recording into it.
        """
        with self._lock:
            self.registry.reset()
            self._apply_kb_lint_gauges()
        if self.cache is not None:
            self.cache.reset_counters()
        if self.slow_log is not None:
            self.slow_log.clear()

    # -- internals -----------------------------------------------------------------------

    def _provider(
        self, interaction: InteractionProvider | None
    ) -> InteractionProvider:
        return interaction or self.interaction or self.nl2cm.interaction

    @staticmethod
    def _fingerprint(provider: InteractionProvider) -> str | None:
        """The provider's cache identity, or None if uncacheable."""
        fp = getattr(provider, "cache_fingerprint", None)
        if callable(fp):
            fp = fp()
        return fp if isinstance(fp, str) else None
