"""Admin-monitor rendering of the serving-layer statistics.

The demo's admin mode (Section 4.2) gives "a peek under the hood" of a
single translation; :func:`render_service_stats` is the same peek for
the serving layer — request counters, cache effectiveness and per-stage
latency aggregates of a :class:`~repro.service.stats.ServiceStats`
snapshot, as a plain-text panel the CLI and examples can print.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdf.planner import PlanExplain
    from repro.service.stats import ServiceStats
    from repro.serving.stats import ServingStats

__all__ = [
    "format_table", "render_plan", "render_service_stats",
    "render_serving_stats",
]

# Pipeline order, parents before their children; unknown stages follow
# alphabetically and pipeline-overhead closes the table.
_STAGE_ORDER = (
    "verification", "nl-parsing", "ix-detection", "ix-finder",
    "ix-creator", "ix-verification", "general-query-generator",
    "individual-triple-creation", "query-composition", "query-lint",
    "final-query", "pipeline-overhead",
)


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render an aligned plain-text table (the admin panels and E-tables)."""
    rendered = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered))
        if rendered else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rendered)
    return "\n".join(out)


def render_service_stats(stats: "ServiceStats") -> str:
    """A plain-text admin panel for a service stats snapshot."""
    lines = ["== translation service =="]
    lines.append(
        f"requests: {stats.requests}  "
        f"translated: {stats.translated}  "
        f"from cache: {stats.served_from_cache}  "
        f"deduplicated: {stats.deduplicated}  "
        f"errors: {stats.errors}"
    )
    lines.append(
        f"workers: {stats.workers}  "
        f"batches: {stats.batches}  "
        f"batch throughput: {stats.batch_throughput_qps:.1f} q/s  "
        f"mean translation: {stats.mean_translation_ms:.1f} ms"
    )
    if stats.cache is not None:
        c = stats.cache
        warmed = f"warmed: {c.warmed}  " if c.warmed else ""
        lines.append(
            f"cache: {c.size}/{c.capacity} entries  "
            f"hits: {c.hits}  misses: {c.misses}  "
            f"evictions: {c.evictions}  "
            f"{warmed}"
            f"hit rate: {c.hit_rate:.1%}"
        )
    else:
        lines.append("cache: disabled")

    lines.append(
        f"lint diagnostics: {stats.lint_errors} error(s)  "
        f"{stats.lint_warnings} warning(s)  "
        f"{stats.lint_infos} info(s)"
    )
    if stats.kb_lint_errors or stats.kb_lint_warnings or stats.kb_lint_infos:
        lines.append(
            f"kb lint: {stats.kb_lint_errors} error(s)  "
            f"{stats.kb_lint_warnings} warning(s)  "
            f"{stats.kb_lint_infos} info(s)"
        )
    if stats.slow_queries:
        lines.append(f"slow queries: {stats.slow_queries}")
    if stats.degraded or stats.retries or stats.breaker_rejections:
        lines.append(
            f"resilience: {stats.degraded} degraded  "
            f"{stats.retries} retrie(s)  "
            f"{stats.breaker_rejections} breaker rejection(s)"
        )
    if stats.plans_compiled or stats.plan_cache_hits:
        lines.append(
            f"query plans: {stats.plans_compiled} compiled  "
            f"cache hits: {stats.plan_cache_hits}  "
            f"misses: {stats.plan_cache_misses}  "
            f"invalidated: {stats.plan_cache_invalidations}  "
            f"hit rate: {stats.plan_cache_hit_rate:.1%}"
        )

    if stats.stages:
        ordered = [s for s in _STAGE_ORDER if s in stats.stages]
        ordered += sorted(set(stats.stages) - set(ordered))
        rows = [
            [stage,
             "leaf" if stats.stages[stage].leaf else "self",
             f"{stats.stages[stage].mean_ms:.2f}",
             str(stats.stages[stage].count)]
            for stage in ordered
        ]
        lines.append("")
        lines.append(format_table(
            ["stage", "kind", "mean ms", "n"], rows
        ))
    return "\n".join(lines)


def render_serving_stats(stats: "ServingStats") -> str:
    """The sharded-serving admin panel: the tier-level counters and
    identity check, one row per shard, then the merged service panel.

    This is what ``GET /stats?format=panel`` returns and what the CLI's
    ``--serve`` mode prints on shutdown.
    """
    lines = ["== sharded serving =="]
    identity = "holds" if stats.requests == stats.accounted else (
        f"VIOLATED ({stats.accounted} accounted)"
    )
    lines.append(
        f"requests: {stats.requests}  "
        f"errors: {stats.errors}  "
        f"shed: {stats.shed} "
        f"(queue {stats.shed_queue_full} / "
        f"breaker {stats.shed_breaker_open})  "
        f"identity: {identity}"
    )
    lines.append(
        f"shards: {stats.alive_shards}/{len(stats.shards)} alive  "
        f"restarts: {stats.restarts}  "
        f"dispatch errors: {stats.dispatch_errors}  "
        f"deadlines expired: {stats.deadline_expired}  "
        f"shed rate: {stats.shed_rate:.1%}"
    )
    warmups = (
        stats.cache_warmups_ok + stats.cache_warmups_empty
        + stats.cache_warmups_failed
    )
    if warmups:
        lines.append(
            f"cache warm-ups: {stats.cache_warmups_ok} ok / "
            f"{stats.cache_warmups_empty} empty / "
            f"{stats.cache_warmups_failed} failed  "
            f"entries replayed: {stats.cache_warmup_entries}"
        )
    if stats.shards:
        rows = [
            [
                str(shard.shard),
                str(shard.pid) if shard.pid is not None else "-",
                "up" if shard.alive else "DOWN",
                str(shard.pending),
                str(shard.restarts),
                str(shard.stats.requests),
                str(shard.stats.served_from_cache),
                str(shard.stats.errors),
            ]
            for shard in stats.shards
        ]
        lines.append("")
        lines.append(format_table(
            ["shard", "pid", "state", "pending", "restarts",
             "requests", "cached", "errors"],
            rows,
        ))
    lines.append("")
    lines.append(render_service_stats(stats.total))
    return "\n".join(lines)


def render_plan(explain: "PlanExplain") -> str:
    """The admin-panel plan view of one explained BGP evaluation.

    Shows the chosen join order, the planner's estimated cardinality
    next to the rows each step actually produced, and whether the
    request hit the plan cache — the query-planning sibling of the
    per-translation "peek under the hood".
    """
    return explain.render()
