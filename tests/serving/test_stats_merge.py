"""Tests for cross-shard stats over metrics snapshots and their edges.

Workers ship their registry exposition; the manager parses it, sums
snapshots per sample key (:func:`merge_samples`), carries a dead
worker's counters forward without its gauges (:func:`without_gauges`),
and reads every number through :meth:`ServiceStats.from_samples`.
These tests pin that pipeline down: every derived rate on a merged
view — ``mean_translation_ms``, ``batch_throughput_qps``, the cache
and plan-cache hit rates — must be ``0.0`` for zero-request shards,
empty merges and all-shed intervals, never a ``ZeroDivisionError``;
and the serving counter identity must hold on every composition of
shard snapshots and front-end counters.
"""

import json
from dataclasses import asdict

from repro.obs.metrics import (
    label_samples,
    merge_samples,
    parse_prometheus_text,
    render_samples,
    without_gauges,
)
from repro.service.service import ServiceStats
from repro.serving import ServingStats, ShardSnapshot

#: A shard that served real traffic, as its worker exposes it.
BUSY_EXPOSITION = """\
# TYPE nl2cm_requests_total counter
nl2cm_requests_total 10
# TYPE nl2cm_request_outcomes_total counter
nl2cm_request_outcomes_total{outcome="translated"} 6
nl2cm_request_outcomes_total{outcome="cache_hit"} 3
nl2cm_request_outcomes_total{outcome="deduplicated"} 0
nl2cm_request_outcomes_total{outcome="error"} 1
# TYPE nl2cm_batches_total counter
nl2cm_batches_total 2
# TYPE nl2cm_batch_questions_total counter
nl2cm_batch_questions_total 10
# TYPE nl2cm_batch_seconds_total counter
nl2cm_batch_seconds_total 0.5
# TYPE nl2cm_translate_seconds histogram
nl2cm_translate_seconds_sum 0.25
nl2cm_translate_seconds_count 6
# TYPE nl2cm_stage_seconds histogram
nl2cm_stage_seconds_sum{stage="nl-parsing",kind="leaf"} 0.1
nl2cm_stage_seconds_count{stage="nl-parsing",kind="leaf"} 9
# TYPE planner_plan_cache_total counter
planner_plan_cache_total{result="hit"} 4
planner_plan_cache_total{result="miss"} 2
# TYPE planner_plans_compiled_total counter
planner_plans_compiled_total 2
# TYPE nl2cm_cache_lookups_total counter
nl2cm_cache_lookups_total{result="hit"} 3
nl2cm_cache_lookups_total{result="miss"} 7
# TYPE nl2cm_cache_evictions_total counter
# TYPE nl2cm_cache_insertions_total counter
nl2cm_cache_insertions_total 7
# TYPE nl2cm_cache_warmed_total counter
nl2cm_cache_warmed_total 2
# TYPE nl2cm_cache_size gauge
nl2cm_cache_size 7
# TYPE nl2cm_cache_capacity gauge
nl2cm_cache_capacity 32
# TYPE nl2cm_workers gauge
nl2cm_workers 4
# TYPE nl2cm_kb_lint_diagnostics gauge
nl2cm_kb_lint_diagnostics{severity="warning"} 1
"""

#: The ServiceStats fields every ``stats`` payload in ``GET /stats``
#: carries, per shard and in the total.
PAYLOAD_KEYS = {
    "requests", "translated", "served_from_cache", "deduplicated",
    "errors", "batches", "batch_questions", "batch_seconds",
    "busy_seconds", "workers", "lint_errors", "lint_warnings",
    "lint_infos", "kb_lint_errors", "kb_lint_warnings", "kb_lint_infos",
    "slow_queries", "degraded", "retries", "breaker_rejections",
    "plan_cache_hits", "plan_cache_misses", "plan_cache_invalidations",
    "plans_compiled", "stages", "cache",
}
CACHE_KEYS = {
    "hits", "misses", "evictions", "size", "capacity", "insertions",
    "warmed",
}


def _busy_shard():
    """Samples shaped like a shard that served real traffic."""
    return parse_prometheus_text(BUSY_EXPOSITION)


def _view(samples):
    return ServiceStats.from_samples(samples)


class TestZeroTrafficEdges:
    def test_empty_merge_has_no_division_errors(self):
        merged = _view(merge_samples([]))
        assert merged.requests == 0
        assert merged.mean_translation_ms == 0.0
        assert merged.batch_throughput_qps == 0.0
        assert merged.plan_cache_hit_rate == 0.0
        assert merged.cache_hit_rate == 0.0
        assert merged.cache is None

    def test_zero_request_shard_rates_are_zero(self):
        stats = _view({})
        assert stats.mean_translation_ms == 0.0
        assert stats.batch_throughput_qps == 0.0
        assert stats.plan_cache_hit_rate == 0.0
        assert stats.accounted == 0

    def test_zero_shard_does_not_poison_busy_merge(self):
        """A dead/fresh shard merges as zeros; the busy shard's rates
        survive untouched."""
        merged = _view(merge_samples([_busy_shard(), {}]))
        assert merged.requests == 10
        assert merged.mean_translation_ms > 0.0
        assert merged.batch_throughput_qps > 0.0
        assert merged.plan_cache_hit_rate == 4 / 6
        assert merged.cache is not None
        assert merged.cache.hit_rate == 3 / 10

    def test_zero_cache_stats_hit_rate_guard(self):
        zero_cache = parse_prometheus_text(
            "# TYPE nl2cm_cache_lookups_total counter\n"
            "# TYPE nl2cm_cache_capacity gauge\n"
            "nl2cm_cache_capacity 8\n"
        )
        merged = _view(merge_samples([zero_cache, zero_cache]))
        assert merged.cache.capacity == 16
        assert merged.cache.hit_rate == 0.0
        assert merged.cache_hit_rate == 0.0


class TestMergeArithmetic:
    def test_counters_sum(self):
        merged = _view(merge_samples([_busy_shard(), _busy_shard()]))
        assert merged.requests == 20
        assert merged.translated == 12
        assert merged.served_from_cache == 6
        assert merged.errors == 2
        assert merged.batch_seconds == 1.0
        assert merged.plan_cache_hits == 8

    def test_stages_merge_by_name(self):
        second = parse_prometheus_text(
            "# TYPE nl2cm_stage_seconds histogram\n"
            'nl2cm_stage_seconds_sum{stage="nl-parsing",kind="leaf"} 0.3\n'
            'nl2cm_stage_seconds_count{stage="nl-parsing",kind="leaf"} 1\n'
            'nl2cm_stage_seconds_sum{stage="ix-finder",kind="leaf"} 0.2\n'
            'nl2cm_stage_seconds_count{stage="ix-finder",kind="leaf"} 5\n'
        )
        merged = _view(merge_samples([_busy_shard(), second]))
        assert merged.stages["nl-parsing"].count == 10
        assert merged.stages["nl-parsing"].total_seconds == 0.4
        assert merged.stages["nl-parsing"].leaf is True
        assert merged.stages["ix-finder"].count == 5

    def test_cacheless_merge_keeps_cache_none(self):
        cacheless = parse_prometheus_text(
            "# TYPE nl2cm_requests_total counter\n"
            "nl2cm_requests_total 2\n"
        )
        merged = _view(merge_samples([cacheless, cacheless, {}]))
        assert merged.requests == 4
        assert merged.cache is None

    def test_mixed_cache_presence_keeps_counters(self):
        merged = _view(merge_samples([_busy_shard(), {}]))
        assert merged.cache is not None
        assert merged.cache.capacity == 32


class TestSerialization:
    """The wire format is the Prometheus exposition itself."""

    def test_roundtrip(self):
        original = _busy_shard()
        rebuilt = parse_prometheus_text(render_samples(original))
        assert rebuilt == original
        assert _view(rebuilt) == _view(original)

    def test_missing_keys_default_to_zero(self):
        """A snapshot with fewer series must still load."""
        rebuilt = _view(parse_prometheus_text(
            "nl2cm_requests_total 3\n"
            'nl2cm_request_outcomes_total{outcome="translated"} 3\n'
        ))
        assert rebuilt.requests == 3
        assert rebuilt.translated == 3
        assert rebuilt.errors == 0
        assert rebuilt.stages == {}
        assert rebuilt.cache is None
        assert rebuilt.mean_translation_ms == 0.0

    def test_roundtrip_is_json_safe(self):
        payload = asdict(_view(_busy_shard()))
        assert json.loads(json.dumps(payload)) == payload
        assert set(payload) == PAYLOAD_KEYS
        assert set(payload["cache"]) == CACHE_KEYS


class TestCarryBaseline:
    """The restart fold: what a dead worker's snapshot contributes to
    the shard's carry-forward."""

    def test_counters_carry_verbatim(self):
        base = _view(without_gauges(_busy_shard()))
        assert base.requests == 10
        assert base.translated == 6
        assert base.errors == 1
        assert base.batch_seconds == 0.5
        assert base.stages["nl-parsing"].count == 9
        assert base.cache.hits == 3
        assert base.cache.misses == 7
        assert base.cache.insertions == 7
        assert base.cache.warmed == 2

    def test_gauges_are_zeroed(self):
        """The replacement reports its own fan-out width, KB-lint
        mirror and cache geometry — summing the dead worker's would
        double-count."""
        base = _view(without_gauges(_busy_shard()))
        assert base.workers == 0
        assert base.kb_lint_warnings == 0
        assert base.cache.size == 0
        assert base.cache.capacity == 0

    def test_cacheless_snapshot_stays_cacheless(self):
        assert _view(without_gauges({})).cache is None
        cacheless = parse_prometheus_text(
            "# TYPE nl2cm_workers gauge\nnl2cm_workers 4\n"
        )
        assert _view(without_gauges(cacheless)).cache is None

    def test_fold_plus_fresh_epoch_is_monotone(self):
        """carry + live after a restart never drops below the pre-crash
        view, and the live worker's gauges are the only ones counted."""
        fresh_epoch = parse_prometheus_text(
            "# TYPE nl2cm_requests_total counter\n"
            "nl2cm_requests_total 2\n"
            "# TYPE nl2cm_request_outcomes_total counter\n"
            'nl2cm_request_outcomes_total{outcome="translated"} 2\n'
            "# TYPE nl2cm_cache_lookups_total counter\n"
            'nl2cm_cache_lookups_total{result="hit"} 1\n'
            'nl2cm_cache_lookups_total{result="miss"} 1\n'
            "# TYPE nl2cm_cache_insertions_total counter\n"
            "nl2cm_cache_insertions_total 1\n"
            "# TYPE nl2cm_cache_warmed_total counter\n"
            "nl2cm_cache_warmed_total 1\n"
            "# TYPE nl2cm_cache_size gauge\n"
            "nl2cm_cache_size 2\n"
            "# TYPE nl2cm_cache_capacity gauge\n"
            "nl2cm_cache_capacity 32\n"
            "# TYPE nl2cm_workers gauge\n"
            "nl2cm_workers 4\n"
        )
        merged = _view(merge_samples(
            [without_gauges(_busy_shard()), fresh_epoch]
        ))
        assert merged.requests == 12
        assert merged.cache.hits == 4
        assert merged.cache.warmed == 3
        assert merged.workers == 4          # the live worker's, once
        assert merged.cache.capacity == 32  # ditto

    def test_repeated_folds_accumulate(self):
        carry = {}
        for _ in range(3):  # three crashes, same traffic each epoch
            carry = merge_samples([carry, without_gauges(_busy_shard())])
        merged = _view(carry)
        assert merged.requests == 30
        assert merged.cache.hits == 9
        assert merged.workers == 0


class TestWarmedField:
    def test_warmed_merges_and_roundtrips(self):
        merged = merge_samples([_busy_shard(), _busy_shard()])
        assert _view(merged).cache.warmed == 4
        rebuilt = parse_prometheus_text(render_samples(merged))
        assert _view(rebuilt).cache.warmed == 4

    def test_old_snapshot_without_warmed_defaults_to_zero(self):
        samples = _busy_shard()
        del samples["nl2cm_cache_warmed_total"]
        rebuilt = _view(samples)
        assert rebuilt.cache.warmed == 0
        assert rebuilt.cache.hits == 3


class TestShardExposition:
    def test_shard_labels_keep_one_header_per_family(self):
        """Relabel-then-merge: both shards' series under one header."""
        text = render_samples(merge_samples([
            label_samples(_busy_shard(), shard="0"),
            label_samples(_busy_shard(), shard="1"),
        ]))
        assert text.count("# TYPE nl2cm_requests_total counter") == 1
        assert 'nl2cm_requests_total{shard="0"} 10' in text
        assert 'nl2cm_requests_total{shard="1"} 10' in text
        parsed = parse_prometheus_text(text)
        assert parsed["nl2cm_stage_seconds"]["samples"][(
            "nl2cm_stage_seconds_count",
            (("kind", "leaf"), ("shard", "1"), ("stage", "nl-parsing")),
        )] == 9


def _snapshot(shard, samples, alive=True):
    return ShardSnapshot(
        shard=shard, pid=1000 + shard, alive=alive, pending=0,
        restarts=0, stats=_view(samples),
    )


class TestServingIdentity:
    def test_identity_holds_with_traffic_and_shed(self):
        parts = [_busy_shard(), {}]
        stats = ServingStats(
            shards=tuple(
                _snapshot(i, part) for i, part in enumerate(parts)
            ),
            total=_view(merge_samples(parts)),
            shed=4,
            shed_queue_full=3,
            shed_breaker_open=1,
            dispatch_errors=2,
            deadline_expired=1,
            restarts=1,
        )
        assert stats.requests == 10 + 4 + 2
        assert stats.errors == 1 + 2
        assert stats.accounted == stats.requests
        assert stats.to_dict()["identity_holds"] is True

    def test_all_shed_interval(self):
        """Zero worker traffic, everything shed: the identity and the
        shed rate still behave."""
        stats = ServingStats(
            shards=(_snapshot(0, {}),),
            total=_view({}),
            shed=7,
            shed_queue_full=7,
        )
        assert stats.requests == 7
        assert stats.accounted == 7
        assert stats.shed_rate == 1.0

    def test_quiet_tier_rates_are_zero(self):
        stats = ServingStats(shards=(), total=_view(merge_samples([])))
        assert stats.requests == 0
        assert stats.shed_rate == 0.0
        assert stats.alive_shards == 0
        payload = stats.to_dict()
        assert payload["identity_holds"] is True
        assert payload["mean_translation_ms"] == 0.0
        assert payload["batch_throughput_qps"] == 0.0

    def test_dead_shard_counts_in_alive_and_identity(self):
        stats = ServingStats(
            shards=(
                _snapshot(0, _busy_shard()),
                _snapshot(1, {}, alive=False),
            ),
            total=_view(merge_samples([_busy_shard(), {}])),
            dispatch_errors=3,
        )
        assert stats.alive_shards == 1
        assert stats.requests == stats.accounted

    def test_to_dict_shard_payloads(self):
        stats = ServingStats(
            shards=(_snapshot(0, _busy_shard()),),
            total=_view(_busy_shard()),
        )
        payload = stats.to_dict()
        shard = payload["shards"][0]
        assert shard["shard"] == 0
        assert shard["alive"] is True
        assert set(shard["stats"]) == set(payload["total"]) == PAYLOAD_KEYS
        assert shard["stats"]["requests"] == 10
        assert shard["stats"]["cache"] == {
            "hits": 3, "misses": 7, "evictions": 0, "size": 7,
            "capacity": 32, "insertions": 7, "warmed": 2,
        }
        assert shard["stats"]["stages"] == {
            "nl-parsing": {"total_seconds": 0.1, "count": 9, "leaf": True},
        }
