"""Cross-shard statistics: the global view and its counter identity.

Each worker answers a ``stats`` frame with its registry's Prometheus
exposition; the shard manager parses it back into a metrics snapshot
(:func:`~repro.obs.metrics.parse_prometheus_text`), keeps each shard's
lifetime snapshot, and reads every number through the one view,
:meth:`ServiceStats.from_samples
<repro.service.stats.ServiceStats.from_samples>` — for each
:class:`ShardSnapshot` and for the merged total.  :class:`ServingStats`
adds the front-end-only counters (shed, dispatch errors, deadline
expiries, restarts) that no worker can know about.

The serving-level counter identity extends the service one::

    requests == translated + served_from_cache + deduplicated
                + errors + shed

``requests`` and ``errors`` are *derived* (worker sums plus front-end
counters), never sampled independently — so the identity holds in
every snapshot by construction, provided each worker snapshot is
internally consistent and the front-end counters are read once.  A
request that timed out at the front-end but completes in the worker is
counted by the worker (as whatever outcome it reached) and tracked in
``deadline_expired`` separately.  A worker restart loses the dead
process's registry, but the manager carries its last snapshot forward
— counter and histogram families only
(:func:`~repro.obs.metrics.without_gauges`): the replacement reports
its own gauges — so the merged counters are monotone non-decreasing
across restarts, as Prometheus counter semantics require; ``restarts``
records how often that happened.

Zero-traffic edges are first-class here: a fresh shard, an all-shed
interval or an empty manager must merge to a snapshot whose derived
rates (``mean_translation_ms``, ``batch_throughput_qps``, hit rates)
are ``0.0``, never a ``ZeroDivisionError`` — the merge tests pin each
of these down.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.service.stats import ServiceStats

__all__ = ["ServingStats", "ShardSnapshot"]


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's worker, as the manager saw it at snapshot time.

    ``stats`` is the shard's *lifetime* view: the carried-forward
    counters of its dead predecessors plus the live worker's last
    probed snapshot.  ``alive=False`` means the probe failed (worker
    crashed or restarting); the shard still participates in the merge
    with whatever was last known, so the global identity keeps holding
    and no counter ever moves backwards.
    """

    shard: int
    pid: int | None
    alive: bool
    pending: int
    restarts: int
    stats: ServiceStats

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "pid": self.pid,
            "alive": self.alive,
            "pending": self.pending,
            "restarts": self.restarts,
            "stats": asdict(self.stats),
        }


@dataclass(frozen=True)
class ServingStats:
    """The global serving view: per-shard snapshots + front-end counters.

    Attributes:
        shards: one :class:`ShardSnapshot` per shard, in shard order.
        total: the merged :class:`ServiceStats` across shards.
        shed: requests rejected by admission control (all reasons).
        shed_queue_full: sheds due to a full per-shard pending queue.
        shed_breaker_open: sheds due to an open dispatch breaker.
        dispatch_errors: requests that died at the front-end with no
            worker outcome (worker crashed and the restart-retry
            failed, or the manager was closing).
        deadline_expired: requests whose front-end deadline expired
            (the worker may still have completed them; they are *not*
            double-counted as dispatch errors).
        restarts: worker processes restarted after a crash.
        cache_warmups_ok: restarts whose replacement worker was seeded
            with hot cache entries before rejoining the ring.
        cache_warmups_empty: restarts with nothing to replay (no hot
            keys owned by the shard, warm-up disabled at runtime, or
            no usable fingerprint).
        cache_warmups_failed: warm-up attempts that errored; the
            replacement serves cold, admission is never blocked.
        cache_warmup_entries: cache entries replayed into replacement
            workers, summed over all warm restarts.
    """

    shards: tuple[ShardSnapshot, ...]
    total: ServiceStats
    shed: int = 0
    shed_queue_full: int = 0
    shed_breaker_open: int = 0
    dispatch_errors: int = 0
    deadline_expired: int = 0
    restarts: int = 0
    cache_warmups_ok: int = 0
    cache_warmups_empty: int = 0
    cache_warmups_failed: int = 0
    cache_warmup_entries: int = 0

    @property
    def requests(self) -> int:
        """All requests the tier accepted responsibility for."""
        return self.total.requests + self.shed + self.dispatch_errors

    @property
    def errors(self) -> int:
        """Worker-side translation errors plus front-end dispatch ones."""
        return self.total.errors + self.dispatch_errors

    @property
    def accounted(self) -> int:
        """The outcome sum; equals :attr:`requests` in every snapshot."""
        return (
            self.total.translated + self.total.served_from_cache
            + self.total.deduplicated + self.errors + self.shed
        )

    @property
    def shed_rate(self) -> float:
        """Shed fraction of all requests (0.0 on a quiet tier)."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def alive_shards(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    def to_dict(self) -> dict:
        """The ``GET /stats`` body: totals, identity, per-shard views."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "accounted": self.accounted,
            "identity_holds": self.requests == self.accounted,
            "shed": self.shed,
            "shed_queue_full": self.shed_queue_full,
            "shed_breaker_open": self.shed_breaker_open,
            "shed_rate": self.shed_rate,
            "dispatch_errors": self.dispatch_errors,
            "deadline_expired": self.deadline_expired,
            "restarts": self.restarts,
            "cache_warmups_ok": self.cache_warmups_ok,
            "cache_warmups_empty": self.cache_warmups_empty,
            "cache_warmups_failed": self.cache_warmups_failed,
            "cache_warmup_entries": self.cache_warmup_entries,
            "alive_shards": self.alive_shards,
            "total": asdict(self.total),
            "mean_translation_ms": self.total.mean_translation_ms,
            "batch_throughput_qps": self.total.batch_throughput_qps,
            "cache_hit_rate": self.total.cache_hit_rate,
            "plan_cache_hit_rate": self.total.plan_cache_hit_rate,
            "shards": [shard.to_dict() for shard in self.shards],
        }
