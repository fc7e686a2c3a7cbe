"""Tests for the shard manager: routing, admission, deadlines, stats.

Thread-mode workers throughout (same entrypoint, same TCP frame
protocol as ``spawn`` — just in-process); ``test_chaos.py`` covers the
real-process behaviors.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import AdmissionRejected, ServingError, ShardTimeoutError
from repro.serving import ShardManager, WorkerSpec
from repro.serving.shards import BREAKER_RECOVERY_SECONDS, BREAKER_THRESHOLD
from repro.service.cache import TranslationCache

from tests.serving.conftest import SUPPORTED, UNSUPPORTED


class TestConstruction:
    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ShardManager(shards=0, start_method="thread")
        with pytest.raises(ValueError):
            ShardManager(shards=1, max_pending=0, start_method="thread")
        with pytest.raises(ValueError):
            ShardManager(shards=1, start_method="carrier-pigeon")
        with pytest.raises(ValueError):
            ShardManager(shards=1, start_method="fork")

    @pytest.mark.parametrize("kwargs", [
        dict(retries=-1),
        dict(stage_timeout_ms=-5),
    ])
    def test_worker_spec_rejects_negative_values(self, kwargs):
        # Refused before anything is spawned, not inside the worker.
        with pytest.raises(ValueError):
            WorkerSpec(**kwargs)

    def test_context_manager_closes(self):
        with ShardManager(
            shards=1, spec=WorkerSpec(cache_size=4),
            start_method="thread",
        ) as manager:
            assert manager.submit(SUPPORTED[0]).ok
        assert manager.closed
        with pytest.raises(ServingError):
            manager.submit(SUPPORTED[0])


class TestRouting:
    def test_route_matches_normalized_ring(self, thread_manager):
        question = SUPPORTED[0]
        shard = thread_manager.route(question)
        assert shard == thread_manager.route("  " + question + "  ")
        assert shard == thread_manager._ring.lookup(
            TranslationCache.normalize(question)
        )

    def test_same_question_same_shard(self, thread_manager):
        outcomes = [
            thread_manager.submit(SUPPORTED[0]) for _ in range(3)
        ]
        assert len({o.shard for o in outcomes}) == 1

    def test_repeat_hits_the_shard_cache(self, thread_manager):
        question = SUPPORTED[1]
        first = thread_manager.submit(question)
        second = thread_manager.submit(question)
        assert first.ok and second.ok
        assert second.cached
        assert second.query == first.query


class TestOutcomes:
    def test_unsupported_question_is_typed_error(self, thread_manager):
        outcome = thread_manager.submit(UNSUPPORTED)
        assert not outcome.ok
        assert outcome.error_type == "VerificationError"
        assert outcome.tips  # rephrasing guidance crosses the wire
        assert not outcome.shed

    def test_outcome_to_dict_shapes(self, thread_manager):
        good = thread_manager.submit(SUPPORTED[0]).to_dict()
        assert good["ok"] and "query" in good
        bad = thread_manager.submit(UNSUPPORTED).to_dict()
        assert not bad["ok"]
        assert bad["error"]["type"] == "VerificationError"
        assert bad["error"]["tips"]

    def test_batch_preserves_request_order(self, thread_manager):
        questions = SUPPORTED + [UNSUPPORTED] + SUPPORTED[::-1]
        outcomes = thread_manager.submit_batch(questions)
        assert [o.text for o in outcomes] == questions
        assert [o.ok for o in outcomes] == [
            True, True, True, False, True, True, True,
        ]
        # The batch fans out by keyspace owner, not round-robin.
        for outcome in outcomes:
            assert outcome.shard == thread_manager.route(outcome.text)

    def test_lint_ops(self, thread_manager):
        question_reply = thread_manager.lint(
            {"question": SUPPORTED[0]}
        )
        assert question_reply["ok"]
        assert question_reply["exit_code"] == 0
        query_reply = thread_manager.lint(
            {"query": "SELECT VARIABLES\nWHERE\n{$x instanceOf Place}"}
        )
        assert query_reply["ok"]
        assert "counts" in query_reply

    def test_ping_and_health(self, thread_manager):
        report = thread_manager.health(ping=True)
        assert set(report) == {0, 1}
        for entry in report.values():
            assert entry["alive"]
            assert entry["ping"] == "ok"
        assert thread_manager.healthy()


class TestStatsView:
    def test_identity_after_mixed_traffic(self, thread_manager):
        thread_manager.submit(SUPPORTED[0])
        thread_manager.submit(UNSUPPORTED)
        thread_manager.submit_batch(SUPPORTED)
        stats = thread_manager.stats()
        assert stats.requests == stats.accounted
        assert stats.requests > 0
        assert stats.to_dict()["identity_holds"] is True

    def test_per_shard_snapshots(self, thread_manager):
        thread_manager.submit_batch(SUPPORTED)
        stats = thread_manager.stats()
        assert [s.shard for s in stats.shards] == [0, 1]
        assert all(s.alive for s in stats.shards)
        assert stats.alive_shards == 2
        assert stats.total.requests == sum(
            s.stats.requests for s in stats.shards
        )

    def test_identity_holds_in_every_concurrent_snapshot(self):
        """The acceptance-criteria invariant: hammer the tier from many
        threads while sampling stats, and require the counter identity
        in *every* snapshot, not just the final one."""
        with ShardManager(
            shards=2, spec=WorkerSpec(cache_size=16),
            start_method="thread",
        ) as manager:
            questions = (SUPPORTED + [UNSUPPORTED]) * 6
            violations = []
            stop = threading.Event()

            def sampler():
                while not stop.is_set():
                    snapshot = manager.stats()
                    if snapshot.requests != snapshot.accounted:
                        violations.append(snapshot)
                    time.sleep(0.002)

            thread = threading.Thread(target=sampler)
            thread.start()
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    list(pool.map(manager.submit, questions))
            finally:
                stop.set()
                thread.join(10.0)
            final = manager.stats()
            assert not violations
            assert final.requests == final.accounted
            assert final.total.requests == len(questions)


class TestAdmissionControl:
    @pytest.fixture()
    def tight_manager(self):
        manager = ShardManager(
            shards=1,
            spec=WorkerSpec(cache_size=0, debug_ops=True),
            start_method="thread",
            max_pending=1,
            retry_after=2.5,
        )
        yield manager
        manager.close()

    def test_queue_full_sheds_with_retry_after(self, tight_manager):
        stall = threading.Thread(
            target=tight_manager.debug_stall, args=(0, 0.8)
        )
        stall.start()
        time.sleep(0.1)  # let the stall occupy the worker
        # One submit fills the only pending slot...
        pending = threading.Thread(
            target=lambda: tight_manager.submit(SUPPORTED[0])
        )
        pending.start()
        time.sleep(0.1)
        # ...so the next is shed, not queued.
        with pytest.raises(AdmissionRejected) as excinfo:
            tight_manager.submit(SUPPORTED[1])
        assert excinfo.value.reason == "queue_full"
        assert excinfo.value.retry_after == 2.5
        stall.join(10.0)
        pending.join(10.0)
        stats = tight_manager.stats()
        assert stats.shed_queue_full >= 1
        assert stats.requests == stats.accounted

    def test_batch_shed_produces_typed_outcomes(self, tight_manager):
        stall = threading.Thread(
            target=tight_manager.debug_stall, args=(0, 0.6)
        )
        stall.start()
        time.sleep(0.1)
        pending = threading.Thread(
            target=lambda: tight_manager.submit(SUPPORTED[0])
        )
        pending.start()
        time.sleep(0.1)
        outcomes = tight_manager.submit_batch(SUPPORTED)
        assert all(o.shed for o in outcomes)
        assert all(
            o.error_type == "AdmissionRejected" for o in outcomes
        )
        stall.join(10.0)
        pending.join(10.0)
        stats = tight_manager.stats()
        assert stats.shed >= len(SUPPORTED)
        assert stats.requests == stats.accounted

    def test_deadline_expiry_raises_and_recovers(self, tight_manager):
        stall = threading.Thread(
            target=tight_manager.debug_stall, args=(0, 0.5)
        )
        stall.start()
        time.sleep(0.1)
        with pytest.raises(ShardTimeoutError):
            tight_manager.submit(SUPPORTED[0], timeout=0.15)
        stall.join(10.0)
        # The stale reply is drained by correlation id; the channel
        # keeps working for the next request.
        assert tight_manager.submit(SUPPORTED[0]).ok
        stats = tight_manager.stats()
        assert stats.deadline_expired >= 1
        assert stats.requests == stats.accounted

    def test_dispatch_breaker_opens_sheds_and_recovers(self):
        with ShardManager(
            shards=2,
            spec=WorkerSpec(cache_size=0, debug_ops=True),
            start_method="thread",
        ) as manager:
            question = SUPPORTED[0]
            shard = manager.route(question)
            for _ in range(BREAKER_THRESHOLD):
                with pytest.raises(ShardTimeoutError):
                    manager.debug_stall(shard, 0.2, timeout=0.01)
            with pytest.raises(AdmissionRejected) as excinfo:
                manager.submit(question)
            assert excinfo.value.reason == "breaker_open"
            # After the cool-down the half-open probe goes through (the
            # queued stalls have drained by then) and closes the breaker.
            time.sleep(BREAKER_RECOVERY_SECONDS + 0.1)
            assert manager.submit(question).ok
            stats = manager.stats()
            assert stats.shed_breaker_open == 1
            assert stats.shed_queue_full == 0
            assert stats.requests == stats.accounted

    def test_stall_requires_debug_ops(self):
        with ShardManager(
            shards=1, spec=WorkerSpec(cache_size=0),
            start_method="thread",
        ) as manager:
            reply = manager.debug_stall(0, 0.0)
            assert not reply.get("ok")
            assert reply["error"]["type"] == "FrameProtocolError"


class TestShutdown:
    def test_close_is_idempotent_and_final(self):
        manager = ShardManager(
            shards=2, spec=WorkerSpec(cache_size=4),
            start_method="thread",
        )
        assert manager.submit(SUPPORTED[0]).ok
        manager.close()
        manager.close()  # second call is a no-op
        assert manager.closed
        for call in (
            lambda: manager.submit(SUPPORTED[0]),
            lambda: manager.submit_batch(SUPPORTED),
            lambda: manager.stats(),
            lambda: manager.lint({"question": SUPPORTED[0]}),
        ):
            with pytest.raises(ServingError):
                call()

    def test_close_drains_inflight_requests(self):
        """A request in flight when close() starts still completes —
        the drain half of graceful shutdown."""
        manager = ShardManager(
            shards=1,
            spec=WorkerSpec(cache_size=0, debug_ops=True),
            start_method="thread",
        )
        results = {}

        def slow_request():
            results["reply"] = manager.debug_stall(0, 0.4)

        thread = threading.Thread(target=slow_request)
        thread.start()
        time.sleep(0.1)
        manager.close(timeout=10.0)
        thread.join(10.0)
        assert results["reply"]["ok"]

    def test_workers_exit_after_close(self):
        manager = ShardManager(
            shards=2, spec=WorkerSpec(cache_size=4),
            start_method="thread",
        )
        runners = [handle.process for handle in manager._handles]
        manager.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            r.is_alive() for r in runners
        ):
            time.sleep(0.02)
        assert not any(r.is_alive() for r in runners)
