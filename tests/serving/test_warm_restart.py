"""Warm-restart protocol tests (thread-mode workers).

These exercise the crash-recovery cache replay end to end over the real
frame protocol: a worker "crashes" (its channel is severed), the next
dispatch restarts it in place, and the manager seeds the replacement's
cache from its shadow index before the retry is served — so the hot
keyspace stays hot across restarts.  Process-isolation variants (real
``kill``) live in ``test_chaos.py``; everything here runs on thread
workers so it is fast enough for the default suite.

Crashes mutate manager state, so each test builds its own manager
instead of sharing the module fixture.
"""

import threading
from collections import Counter

from repro.data.corpus import supported_questions
from repro.serving import ShardManager, WorkerSpec
from repro.service.cache import TranslationCache

from tests.serving.conftest import SUPPORTED, UNSUPPORTED


def _manager(**overrides):
    kwargs = dict(
        shards=2,
        spec=WorkerSpec(cache_size=32, debug_ops=True),
        start_method="thread",
        connect_timeout=60.0,
    )
    kwargs.update(overrides)
    return ShardManager(**kwargs)


def _crash(manager, shard):
    """Sever a thread worker's channel: the next dispatch discovers the
    'crash' and restarts the shard in place."""
    handle = manager._handles[shard]
    handle.channel.close()
    return handle


def _counters(stats):
    """The monotone counter tuple a snapshot must never decrease."""
    cache = stats.total.cache
    return (
        stats.requests,
        stats.errors,
        stats.total.translated,
        stats.total.served_from_cache,
        stats.total.deduplicated,
        stats.shed,
        stats.restarts,
        cache.hits if cache is not None else 0,
        cache.warmed if cache is not None else 0,
    )


class TestWarmRestart:
    def test_replacement_is_seeded_with_hot_keys(self):
        with _manager() as manager:
            question = SUPPORTED[0]
            first = manager.submit(question)
            assert first.ok and not first.cached
            handle = _crash(manager, first.shard)

            # The submit that discovers the crash restarts the worker,
            # seeds its cache, and retries — so the very first request
            # the replacement serves for a hot question is a cache hit.
            second = manager.submit(question, timeout=60.0)
            assert second.ok
            assert second.cached
            assert second.query == first.query  # byte-identical replay
            assert handle.restarts == 1

            stats = manager.stats()
            assert stats.restarts == 1
            assert stats.cache_warmups_ok == 1
            assert stats.cache_warmup_entries >= 1
            assert stats.total.cache.warmed >= 1
            assert stats.requests == stats.accounted

    def test_warmup_disabled_leaves_replacement_cold(self):
        with _manager(warmup_keys=0) as manager:
            question = SUPPORTED[0]
            first = manager.submit(question)
            assert first.ok
            _crash(manager, first.shard)

            second = manager.submit(question, timeout=60.0)
            assert second.ok
            assert not second.cached  # cold start: translated afresh
            assert second.query == first.query  # …but byte-identical

            stats = manager.stats()
            assert stats.restarts == 1
            assert stats.cache_warmups_ok == 0
            assert stats.cache_warmup_entries == 0

    def test_restart_with_no_history_counts_as_empty_warmup(self):
        with _manager() as manager:
            _crash(manager, 0)
            assert manager.ping(0, timeout=60.0)  # triggers the restart
            stats = manager.stats()
            assert stats.restarts == 1
            assert stats.cache_warmups_empty == 1
            assert stats.cache_warmups_ok == 0
            assert stats.cache_warmups_failed == 0

    def test_warmup_seeds_only_entries_owned_by_the_shard(self):
        with _manager() as manager:
            for question in SUPPORTED:
                assert manager.submit(question).ok
            crashed = manager.route(SUPPORTED[0])
            _crash(manager, crashed)
            assert manager.submit(SUPPORTED[0], timeout=60.0).ok

            # Only this shard's keyspace slice was replayed: every
            # seeded entry re-serves as a hit on the owning shard, and
            # the sibling's counters are untouched by the warm-up.
            stats = manager.stats()
            owned = [q for q in SUPPORTED if manager.route(q) == crashed]
            assert stats.cache_warmup_entries == len(owned)
            for shard in stats.shards:
                if shard.shard != crashed:
                    assert shard.stats.cache.warmed == 0

    def test_each_shard_caches_only_its_own_keys(self):
        """The ownership invariant behind a shadow-index-only warm-up:
        every insert reaches the shard ``route()`` names, so a sibling's
        cache never holds a restarted shard's keys, and a restart does
        not contact the siblings at all."""
        questions = [q.text for q in supported_questions()]
        with _manager(
            shards=3, spec=WorkerSpec(cache_size=2 * len(questions)),
        ) as manager:
            for _ in range(2):
                for question in questions:
                    assert manager.submit(question).ok
            owned = Counter(
                manager.route(key)
                for key in {TranslationCache.normalize(q) for q in questions}
            )
            stats = manager.stats()
            for shard in stats.shards:
                assert shard.stats.cache.size == owned[shard.shard]

            crashed = manager.route(questions[0])
            siblings = [
                h for h in manager._handles if h.shard != crashed
            ]
            ids_before = [h._request_id for h in siblings]
            _crash(manager, crashed)
            assert manager.submit(questions[0], timeout=60.0).cached
            assert [h._request_id for h in siblings] == ids_before
            stats = manager.stats()
            assert stats.cache_warmup_entries == owned[crashed]

    def test_merged_counters_survive_restart_monotonically(self):
        with _manager() as manager:
            for question in SUPPORTED + [UNSUPPORTED]:
                manager.submit(question)
            before = _counters(manager.stats())
            crashed = manager.route(SUPPORTED[0])
            _crash(manager, crashed)
            assert manager.submit(SUPPORTED[0], timeout=60.0).ok
            after = _counters(manager.stats())
            for prev, cur in zip(before, after):
                assert cur >= prev, (before, after)
            stats = manager.stats()
            assert stats.requests == stats.accounted
            # The pre-crash traffic is still visible after the restart.
            assert stats.requests > len(SUPPORTED) + 1

    def test_counters_monotonic_under_concurrent_snapshots(self):
        """Eight submit threads + scraper threads racing a restart:
        every scraper must observe a monotone non-decreasing counter
        sequence, and the identity must hold in every snapshot."""
        with _manager() as manager:
            stop = threading.Event()
            errors: list[AssertionError] = []

            def hammer(worker: int) -> None:
                questions = SUPPORTED + [UNSUPPORTED]
                i = worker
                while not stop.is_set():
                    try:
                        manager.submit(
                            questions[i % len(questions)], timeout=60.0
                        )
                    except Exception:
                        pass  # shed/timeout racing the crash is fine
                    i += 1

            def scrape() -> None:
                last = None
                while not stop.is_set():
                    stats = manager.stats(timeout=60.0)
                    try:
                        assert stats.requests == stats.accounted
                        seen = _counters(stats)
                        if last is not None:
                            for prev, cur in zip(last, seen):
                                assert cur >= prev, (last, seen)
                        last = seen
                    except AssertionError as exc:
                        errors.append(exc)
                        return

            threads = [
                threading.Thread(target=hammer, args=(w,))
                for w in range(8)
            ] + [threading.Thread(target=scrape) for _ in range(2)]
            for t in threads:
                t.start()
            # Warm up the shadow index, then crash each shard once
            # while traffic and scrapes are in flight.
            for question in SUPPORTED:
                manager.submit(question, timeout=60.0)
            for shard in range(manager.shards):
                _crash(manager, shard)
                manager.submit(SUPPORTED[0], timeout=60.0)
            stop.set()
            for t in threads:
                t.join(120.0)
                assert not t.is_alive()
            assert not errors, errors[0]
            final = manager.stats()
            assert final.restarts >= manager.shards
            assert final.requests == final.accounted


class TestWarmupOps:
    """The ``cache_seed`` frame op, driven directly over the channel."""

    def test_cache_seed_roundtrip_warms_the_peer(self):
        with _manager() as manager:
            question = SUPPORTED[0]
            first = manager.submit(question)
            handle = manager._handles[first.shard]
            # Built the way _gather_warmup_entries builds a seed frame.
            entries = [{
                "text": question,
                "fingerprint": handle.fingerprint,
                "query": first.query,
            }]
            peer = manager._handles[1 - first.shard]
            reply = manager._roundtrip(
                peer, {"op": "cache_seed", "entries": entries}
            )
            assert reply["ok"]
            assert (reply["warmed"], reply["refused"]) == (1, 0)
            # A second replay of the same key leaves the live entry be.
            reply = manager._roundtrip(
                peer, {"op": "cache_seed", "entries": entries}
            )
            assert (reply["warmed"], reply["refused"]) == (0, 0)

    def test_cache_export_is_an_unknown_op(self):
        with _manager() as manager:
            reply = manager._roundtrip(
                manager._handles[0], {"op": "cache_export", "n": 8}
            )
            assert not reply["ok"]
            assert reply["error"]["type"] == "FrameProtocolError"
            assert "unknown op 'cache_export'" in reply["error"]["message"]

    def test_cache_seed_refuses_malformed_entries(self):
        with _manager() as manager:
            handle = manager._handles[0]
            fingerprint = handle.fingerprint
            reply = manager._roundtrip(handle, {
                "op": "cache_seed",
                "entries": [
                    "not a dict",
                    {"text": "", "fingerprint": fingerprint, "query": "q"},
                    {"text": "no query", "fingerprint": fingerprint},
                ],
            })
            assert reply["ok"]
            assert reply["warmed"] == 0
            assert reply["refused"] == 3

    def test_cache_seed_without_a_list_is_a_protocol_error(self):
        with _manager() as manager:
            reply = manager._roundtrip(
                manager._handles[0],
                {"op": "cache_seed", "entries": "nope"},
            )
            assert not reply["ok"]
            assert reply["error"]["type"] == "FrameProtocolError"
