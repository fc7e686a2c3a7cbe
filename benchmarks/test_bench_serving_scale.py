"""E9 (extended): multi-process scaling — shards vs. questions/sec.

The thread-tier bench (``test_bench_throughput.py``) tops out at the
GIL: batching and caching help, but 4 *threads* cannot run 4 pipelines
at once.  This bench drives the same repeated-question trace through
the process tier — real ``spawn`` workers behind consistent-hash
routing — at 1, 2 and 4 shards, with caching **disabled** so every
request is a genuine CPU-bound pipeline run and the measured curve is
process parallelism, nothing else.  The trace goes out one round per
``submit_batch``: a round holds each question once, so a shard's
single-flight dedup (which merges copies of a question *within* one
batch) has nothing to merge.

Three assertions:

* **Every request is a pipeline run** (always enforced): the shards'
  ``translated`` total equals the number of requests sent.
* **Byte-identical outputs** at every shard count (always enforced):
  sharding is an execution detail, not a semantics change — the same
  trace must produce exactly the same query texts, in order, whether
  one worker serves it or four.
* **The scaling floor** (enforced only where it can physically hold:
  ≥4 usable cores — CI's runners have them; a 1-core dev container
  cannot scale by forking and reports the curve without gating on it):
  4 shards must clear ``SCALE_FLOOR``× the 1-shard questions/sec.
"""

import os
import time

from repro.data.corpus import supported_questions
from repro.eval.harness import format_table
from repro.serving import ShardManager, WorkerSpec

SHARD_COUNTS = (1, 2, 4)
ROUNDS = 20
SCALE_FLOOR = 1.8


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def serving_rounds() -> list[list[str]]:
    texts = [q.text for q in supported_questions()]
    return [list(texts) for _ in range(ROUNDS)]


def serving_trace() -> list[str]:
    return [t for batch in serving_rounds() for t in batch]


def test_bench_serving_scale(report_writer):
    rounds = serving_rounds()
    trace = serving_trace()
    # cache_size=0 + threads=1: every request is one full pipeline run
    # on the owning shard — the only parallelism is the process tier.
    spec = WorkerSpec(cache_size=0, threads=1)

    qps: dict[int, float] = {}
    outputs: dict[int, list[str | None]] = {}
    for shards in SHARD_COUNTS:
        with ShardManager(
            shards=shards, spec=spec, start_method="spawn",
            connect_timeout=180.0,
        ) as manager:
            warmup = manager.submit_batch(trace[:4], timeout=300.0)
            start = time.perf_counter()
            outcomes = [
                outcome
                for batch in rounds
                for outcome in manager.submit_batch(batch, timeout=600.0)
            ]
            elapsed = time.perf_counter() - start
            stats = manager.stats()
        assert all(o.ok for o in outcomes)
        assert stats.requests == stats.accounted
        assert stats.total.translated == len(warmup) + len(outcomes)
        qps[shards] = len(trace) / elapsed
        outputs[shards] = [o.query for o in outcomes]

    cores = _usable_cores()
    rows = [
        [f"{shards} shard(s)", len(trace),
         f"{len(trace) / qps[shards]:.3f}", f"{qps[shards]:.0f}",
         f"{qps[shards] / qps[1]:.2f}x"]
        for shards in SHARD_COUNTS
    ]
    table = format_table(
        ["tier", "questions", "seconds", "q/s", "vs 1 shard"], rows
    )
    table += (
        f"\n\ntrace: {len(set(trace))} distinct questions x {ROUNDS} "
        f"rounds, cache disabled (every request is a pipeline run); "
        f"{cores} usable core(s); scaling floor {SCALE_FLOOR}x at 4 "
        f"shards enforced only with >= 4 cores"
    )
    report_writer("E9-serving-scale", table)

    # Sharding must not change a single output byte.
    for shards in SHARD_COUNTS[1:]:
        assert outputs[shards] == outputs[1], (
            f"{shards}-shard outputs diverge from the 1-shard tier"
        )

    if cores >= 4:
        assert qps[4] >= SCALE_FLOOR * qps[1], (
            f"4 shards reached only {qps[4] / qps[1]:.2f}x the 1-shard "
            f"throughput on {cores} cores (floor {SCALE_FLOOR}x)"
        )


def test_bench_routing_keeps_shard_caches_hot(report_writer):
    """The consistent-hash dividend: with per-shard LRUs *enabled*, a
    repeated trace is served almost entirely from cache because every
    repeat of a question lands on the shard that already translated
    it."""
    trace = serving_trace()
    distinct = len(set(trace))
    with ShardManager(
        shards=2,
        spec=WorkerSpec(cache_size=distinct * 2, threads=1),
        start_method="spawn",
        connect_timeout=180.0,
    ) as manager:
        start = time.perf_counter()
        outcomes = manager.submit_batch(trace, timeout=600.0)
        elapsed = time.perf_counter() - start
        stats = manager.stats()

    assert all(o.ok for o in outcomes)
    # Each distinct question ran the pipeline at most once per owning
    # shard; everything else was a cache hit or single-flight dedup.
    assert stats.total.translated <= distinct
    served_cheap = (
        stats.total.served_from_cache + stats.total.deduplicated
    )
    assert served_cheap >= len(trace) - distinct
    assert stats.requests == stats.accounted

    table = (
        f"trace of {len(trace)} requests ({distinct} distinct): "
        f"{stats.total.translated} pipeline runs, "
        f"{stats.total.served_from_cache} cache hits, "
        f"{stats.total.deduplicated} deduplicated, "
        f"{len(trace) / elapsed:.0f} q/s end-to-end over 2 shards"
    )
    report_writer("E9-serving-routing", table)
