"""The worker tier: routing, admission control, crash recovery, stats.

:class:`ShardManager` owns N worker processes (or threads — same
protocol, used by tests and available for debugging), a consistent-hash
:class:`~repro.serving.hashring.HashRing` over the normalized-question
keyspace, and one framed channel per worker.  The pieces:

* **Routing** — a question's shard is
  ``ring.lookup(TranslationCache.normalize(text))``: identical
  questions (modulo whitespace) always land on the same shard, which
  is what keeps that shard's translation LRU and plan cache hot.
* **Dispatch** — one channel per worker, serialized by a per-handle
  lock (the worker is single-threaded anyway); requests carry
  monotonically increasing correlation ids, so a reply that arrives
  after its request timed out is recognized as stale and discarded
  instead of being delivered to the wrong caller.
* **Admission control** — a bounded pending gate per shard: when
  ``max_pending`` requests are already queued or in flight for a
  shard, new ones are *shed* with :class:`AdmissionRejected` (HTTP
  429 upstairs) instead of growing an unbounded queue.  A per-shard
  :class:`~repro.resilience.CircuitBreaker` over dispatch failures
  (:data:`BREAKER_THRESHOLD` consecutive failures open it for
  :data:`BREAKER_RECOVERY_SECONDS`) sheds proactively while a shard is
  misbehaving.
* **Crash recovery** — a dead channel triggers one in-place restart
  (same shard id, so the ring needs no surgery and the keyspace
  re-routes to the replacement automatically) and one retry of the
  in-flight request; a second failure surfaces as
  :class:`WorkerCrashedError`.
* **Warm restarts** — before a replacement worker rejoins the ring,
  the manager replays the shard's hottest translations into its cache
  (``cache_seed``) from a manager-side *shadow index* of recently
  served (question, query) pairs — so a crash costs restart latency,
  not a cold cache.  The shadow index is the only source: the ring is
  fixed and a restart keeps the shard id, so a sibling's cache only
  ever holds the sibling's own keys.  Warm-up is bounded
  (``warmup_keys`` entries, one short deadline), best-effort (a
  failure leaves the worker cold, never down), and happens while only
  the dead shard's dispatch lock is held — admission control and the
  other shards are never touched by it.
* **Stats** — one probe asks every worker for its registry exposition
  and keeps each shard's *lifetime* metrics snapshot: a **carry-forward**
  of its dead predecessors' counters (folded in at restart, gauges
  dropped) plus the live worker's last probed snapshot — so per-shard
  and merged counters are monotone non-decreasing across crashes, as
  Prometheus counter semantics require.  :meth:`stats` reads those
  snapshots through ``ServiceStats.from_samples`` into a
  :class:`~repro.serving.stats.ServingStats` whose counter identity
  ``requests == translated + served_from_cache + deduplicated +
  errors + shed`` holds in every snapshot; :meth:`expose` renders the
  same snapshots, ``shard``-labelled, after the manager's own series.

Everything here is stdlib: ``multiprocessing`` for the processes, a
loopback TCP listener the workers dial back into (spawn-safe on every
platform: only picklable primitives cross the process boundary), and
the length-prefixed JSON frames of :mod:`repro.serving.frames`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import multiprocessing
import socket

from repro.errors import (
    AdmissionRejected,
    ChannelClosedError,
    FrameProtocolError,
    ReproError,
    ServingError,
    ShardTimeoutError,
    WorkerCrashedError,
)
from repro.obs.metrics import (
    MetricsRegistry,
    Samples,
    label_samples,
    merge_samples,
    parse_prometheus_text,
    render_samples,
    without_gauges,
)
from repro.resilience.breaker import CircuitBreaker
from repro.serving.config import WorkerSpec
from repro.serving.frames import FrameChannel
from repro.serving.hashring import HashRing
from repro.serving.stats import ServingStats, ShardSnapshot
from repro.serving.worker import _process_entry, worker_main
from repro.service.cache import TranslationCache
from repro.service.service import ServiceStats

__all__ = ["RemoteOutcome", "ShardManager"]

#: Start methods the manager accepts.  "thread" runs ``worker_main`` on
#: daemon threads in-process — protocol-identical, no process isolation;
#: it exists for tests and debugging, not for CPU scaling.
START_METHODS = ("spawn", "thread")

#: Per-shard budget of a ``stats`` probe (``stats()`` and ``expose()``).
_PROBE_SECONDS = 10.0

#: Virtual nodes per shard on the hash ring.
RING_REPLICAS = 128

#: Consecutive dispatch failures that open a shard's circuit breaker,
#: and how long it then sheds before a half-open probe.
BREAKER_THRESHOLD = 8
BREAKER_RECOVERY_SECONDS = 2.0


@dataclass(frozen=True)
class RemoteOutcome:
    """One question's result as served by the worker tier."""

    text: str
    shard: int
    ok: bool
    query: str | None = None
    degraded: bool = False
    cached: bool = False
    error_type: str | None = None
    error_message: str | None = None
    tips: tuple[str, ...] = ()

    @classmethod
    def from_payload(
        cls, text: str, shard: int, payload: dict
    ) -> "RemoteOutcome":
        if payload.get("ok"):
            return cls(
                text=text,
                shard=shard,
                ok=True,
                query=payload.get("query"),
                degraded=bool(payload.get("degraded")),
                cached=bool(payload.get("cached")),
            )
        error = payload.get("error") or {}
        return cls(
            text=text,
            shard=shard,
            ok=False,
            error_type=error.get("type") or "UnknownError",
            error_message=error.get("message") or "",
            tips=tuple(error.get("tips") or ()),
        )

    @classmethod
    def from_exception(
        cls, text: str, shard: int, exc: BaseException
    ) -> "RemoteOutcome":
        return cls(
            text=text,
            shard=shard,
            ok=False,
            error_type=type(exc).__name__,
            error_message=str(exc),
        )

    @property
    def shed(self) -> bool:
        return self.error_type == "AdmissionRejected"

    def to_dict(self) -> dict:
        out: dict = {"question": self.text, "shard": self.shard, "ok": self.ok}
        if self.ok:
            out.update(
                query=self.query, degraded=self.degraded, cached=self.cached
            )
        else:
            out["error"] = {
                "type": self.error_type, "message": self.error_message,
            }
            if self.tips:
                out["error"]["tips"] = list(self.tips)
        return out


class _AdmissionGate:
    """A bounded pending counter; full means shed, never queue."""

    def __init__(self, capacity: int, gauge=None):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._depth = 0
        self._gauge = gauge

    def try_enter(self) -> bool:
        with self._lock:
            if self._depth >= self.capacity:
                return False
            self._depth += 1
            if self._gauge is not None:
                self._gauge.set(float(self._depth))
            return True

    def exit(self) -> None:
        with self._lock:
            self._depth -= 1
            if self._gauge is not None:
                self._gauge.set(float(self._depth))

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth


class _ShadowIndex:
    """The manager's bounded memory of recently served translations.

    A small LRU of ``normalized question -> query text`` fed by every
    successful, non-degraded outcome that passes through the manager.
    It exists for exactly one moment: when a worker dies, its
    replacement is seeded from here before rejoining the ring.  Guarded
    by its own lock — recording on the hot path costs one dict update
    and never touches a handle lock or the manager lock.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, str] = OrderedDict()

    def record(self, text: str, query: str) -> None:
        key = TranslationCache.normalize(text)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = query
                return
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            self._entries[key] = query

    def hottest(
        self, n: int, owned: Callable[[str], bool]
    ) -> list[tuple[str, str]]:
        """Up to ``n`` hottest (text, query) pairs passing ``owned``."""
        if n <= 0:
            return []
        out: list[tuple[str, str]] = []
        with self._lock:
            for key in reversed(self._entries):
                if owned(key):
                    out.append((key, self._entries[key]))
                    if len(out) >= n:
                        break
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _WorkerHandle:
    """One shard's runner, channel and correlation-id counter.

    Mutable fields are only touched while holding :attr:`lock` (the
    same lock that serializes the channel), except ``restarts`` which
    is additionally read lock-free by stats snapshots — a torn read of
    an int is impossible in CPython and the value is advisory.
    """

    def __init__(self, shard: int):
        self.shard = shard
        self.lock = threading.Lock()
        self.channel: FrameChannel | None = None
        self.process = None  # multiprocessing.Process | threading.Thread
        self.pid: int | None = None
        self.fingerprint: str | None = None
        self.restarts = 0
        self._request_id = 0

    def next_id(self) -> int:
        """The next correlation id; the caller holds :attr:`lock`."""
        self._request_id += 1
        return self._request_id

    def alive(self) -> bool:
        runner = self.process
        return runner is not None and runner.is_alive()


class ShardManager:
    """N worker processes behind consistent-hash routing + admission.

    Args:
        shards: worker count; each owns ``1/shards`` of the keyspace.
        spec: the :class:`WorkerSpec` every worker builds from.
        start_method: ``"spawn"`` (default, portable) or ``"thread"``
            (in-process workers for tests/debugging — no CPU scaling).
        max_pending: bounded pending-queue depth per shard; beyond it
            requests are shed with :class:`AdmissionRejected`.
        request_timeout: default per-request deadline in seconds.
        connect_timeout: how long to wait for a worker's ``hello``.
        retry_after: the shed response's Retry-After hint, seconds.
        warmup_keys: how many hot cache entries to replay into a
            restarted worker before it rejoins the ring (0 disables
            warm restarts *and* the shadow-index bookkeeping feeding
            them).  Warm-up is best-effort and bounded — a failed or
            slow seed leaves the replacement cold, never down.

    The ``serving_*`` series live in the manager's own
    :attr:`registry`; the HTTP front-end shares it so ``/metrics``
    covers both layers.
    """

    def __init__(
        self,
        shards: int = 2,
        spec: WorkerSpec | None = None,
        *,
        start_method: str = "spawn",
        max_pending: int = 64,
        request_timeout: float = 30.0,
        connect_timeout: float = 120.0,
        retry_after: float = 1.0,
        warmup_keys: int = 64,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if start_method not in START_METHODS:
            raise ValueError(
                f"start_method must be one of {START_METHODS}, "
                f"got {start_method!r}"
            )
        self.spec = spec or WorkerSpec()
        self.start_method = start_method
        self.max_pending = max_pending
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self.retry_after = retry_after
        self.registry = MetricsRegistry()
        self._ctx = (
            multiprocessing.get_context(start_method)
            if start_method != "thread" else None
        )
        self._token = os.urandom(16).hex()
        self._ring = HashRing(range(shards), replicas=RING_REPLICAS)
        self._handles = [_WorkerHandle(i) for i in range(shards)]
        self._breakers = [
            CircuitBreaker(
                failure_threshold=BREAKER_THRESHOLD,
                recovery_seconds=BREAKER_RECOVERY_SECONDS,
            )
            for _ in range(shards)
        ]
        self._lock = threading.Lock()          # manager-level counters
        self._accept_lock = threading.Lock()   # the shared listener
        self._close_lock = threading.Lock()
        self._closed = False
        self._pending_hellos: dict[
            int, tuple[FrameChannel, int | None, str | None]
        ] = {}
        self.warmup_keys = max(0, warmup_keys)
        self._shadow = _ShadowIndex(
            capacity=max(256, self.warmup_keys * shards * 4)
        ) if self.warmup_keys else None
        # Per-shard metrics snapshots: the summed counters of a shard's
        # dead predecessors (gauge families dropped), plus the live
        # worker's last successfully probed snapshot.  Both are only
        # written under self._lock; _restart_locked folds last_seen
        # into carry atomically, so carry[i] + last_seen[i] is monotone
        # non-decreasing per counter sample across restarts.
        self._carry: list[Samples] = [{} for _ in range(shards)]
        self._last_seen: list[Samples] = [{} for _ in range(shards)]
        self._build_metrics(shards)
        self._gates = [
            _AdmissionGate(
                max_pending, self._m_pending.labels(shard=str(i))
            )
            for i in range(shards)
        ]
        self._pool = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="shard-dispatch"
        )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(shards + 4)
        try:
            for handle in self._handles:
                self._launch(handle)
            for handle in self._handles:
                channel, pid, fingerprint = self._accept_hello(
                    handle.shard
                )
                handle.channel = channel
                handle.pid = pid
                handle.fingerprint = fingerprint
        except BaseException:
            self.close(timeout=1.0)
            raise

    # -- metrics ---------------------------------------------------------------

    def _build_metrics(self, shards: int) -> None:
        r = self.registry
        shed = r.counter(
            "serving_shed_total",
            "Requests rejected by admission control instead of queued, "
            "by reason (queue_full / breaker_open).  Every shed request "
            "is an HTTP 429 with Retry-After upstairs.",
            labelnames=("reason",),
        )
        self._c_shed_queue = shed.labels(reason="queue_full")
        self._c_shed_breaker = shed.labels(reason="breaker_open")
        self._c_restarts = r.counter(
            "serving_worker_restarts_total",
            "Worker processes restarted in place after a crash "
            "(the replacement inherits the shard's keyspace).",
        ).labels()
        self._c_dispatch_errors = r.counter(
            "serving_dispatch_errors_total",
            "Requests that died at the front-end with no worker "
            "outcome: the worker crashed and the one restart-retry "
            "failed, or the manager was closing.",
        ).labels()
        self._c_deadline = r.counter(
            "serving_deadline_expired_total",
            "Requests whose front-end deadline expired before the "
            "worker answered (the worker may still complete them; "
            "stale replies are drained by correlation id).",
        ).labels()
        warmup = r.counter(
            "serving_cache_warmup_total",
            "Warm-restart cache replays by outcome: ok (the "
            "replacement worker was seeded), empty (nothing to "
            "replay), failed (the seed attempt errored; the worker "
            "serves cold).",
            labelnames=("outcome",),
        )
        self._c_warmup_ok = warmup.labels(outcome="ok")
        self._c_warmup_empty = warmup.labels(outcome="empty")
        self._c_warmup_failed = warmup.labels(outcome="failed")
        self._c_warmup_entries = r.counter(
            "serving_cache_warmup_entries_total",
            "Cache entries replayed into replacement workers by the "
            "warm-restart protocol.",
        ).labels()
        self._m_pending = r.gauge(
            "serving_pending",
            "Requests queued or in flight per shard; admission control "
            "sheds above max_pending.",
            labelnames=("shard",),
        )
        r.gauge(
            "serving_shards",
            "Configured worker-shard count.",
            callback=lambda: float(shards),
        )
        r.gauge(
            "serving_workers_alive",
            "Worker runners currently alive.",
            callback=lambda: float(
                sum(1 for h in self._handles if h.alive())
            ),
        )

    # -- worker lifecycle ------------------------------------------------------

    def _launch(self, handle: _WorkerHandle) -> None:
        host, port = self._listener.getsockname()
        args = (host, port, self._token, handle.shard, self.spec)
        if self.start_method == "thread":
            runner = threading.Thread(
                target=worker_main,
                args=args,
                name=f"shard-{handle.shard}-worker",
                daemon=True,
            )
        else:
            runner = self._ctx.Process(
                target=_process_entry,
                args=args,
                name=f"shard-{handle.shard}-worker",
                daemon=True,
            )
        runner.start()
        handle.process = runner

    def _accept_hello(
        self, expected_shard: int
    ) -> tuple[FrameChannel, int | None, str | None]:
        """Wait for ``expected_shard``'s ready signal on the listener.

        Concurrent restarts share one listener, so a hello for a
        *different* shard is parked and handed to its own waiter
        instead of being dropped.
        """
        deadline = time.monotonic() + self.connect_timeout
        with self._accept_lock:
            while True:
                parked = self._pending_hellos.pop(expected_shard, None)
                if parked is not None:
                    return parked
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServingError(
                        f"shard {expected_shard} did not report ready "
                        f"within {self.connect_timeout:.0f}s"
                    )
                self._listener.settimeout(remaining)
                try:
                    conn, _ = self._listener.accept()
                except (socket.timeout, TimeoutError):
                    continue
                except OSError as err:
                    raise ServingError(
                        f"listener failed while waiting for shard "
                        f"{expected_shard}: {err}"
                    ) from err
                channel = FrameChannel(conn)
                try:
                    hello = channel.recv(timeout=remaining)
                except (ReproError, TimeoutError, OSError):
                    channel.close()
                    continue
                if (
                    hello.get("op") != "hello"
                    or hello.get("token") != self._token
                ):
                    channel.close()
                    continue
                shard = int(hello.get("shard", -1))
                pid = hello.get("pid")
                fingerprint = hello.get("fingerprint")
                if not isinstance(fingerprint, str):
                    fingerprint = None
                if shard == expected_shard:
                    return channel, pid, fingerprint
                self._pending_hellos[shard] = (channel, pid, fingerprint)

    def _restart_locked(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker in place; the caller holds its lock.

        Two recovery duties beyond relaunching: the dead worker's last
        probed counters are folded into the shard's carry-forward
        baseline (so merged stats never go backwards), and the
        replacement's cache is seeded with the shard's hottest keys
        before any request is dispatched to it (so a crash costs
        latency, not locality).
        """
        if handle.channel is not None:
            handle.channel.close()
            handle.channel = None
        runner = handle.process
        if runner is not None and not isinstance(runner, threading.Thread):
            if runner.is_alive():
                runner.terminate()
                runner.join(5.0)
                if runner.is_alive():  # pragma: no cover - stuck worker
                    runner.kill()
                    runner.join(5.0)
        handle.restarts += 1
        with self._lock:
            self._c_restarts.inc()
            # Fold the dead worker's history into the baseline.  The
            # caller holds handle.lock, so no stats probe of this shard
            # can interleave between the fold and the reset — the sum
            # carry + last_seen never moves backwards.
            self._carry[handle.shard] = merge_samples([
                self._carry[handle.shard],
                without_gauges(self._last_seen[handle.shard]),
            ])
            self._last_seen[handle.shard] = {}
        self._launch(handle)
        channel, pid, fingerprint = self._accept_hello(handle.shard)
        handle.channel = channel
        handle.pid = pid
        handle.fingerprint = fingerprint
        self._warm_restart_locked(handle)

    #: Budget for the warm-up seed exchange.  Short on purpose: warm-up
    #: rides inside a restart that a live request is waiting on.
    _WARMUP_TIMEOUT = 5.0

    def _warm_restart_locked(self, handle: _WorkerHandle) -> None:
        """Seed a freshly restarted worker's cache; never raises.

        The caller holds ``handle.lock`` (and nothing else).  Entries
        come from the shadow index — the manager's own memory of what
        this keyspace slice served; no other shard is contacted.  Any
        failure downgrades to a cold start; the worker is already
        accepting frames either way.
        """
        if self._shadow is None:  # warmup_keys=0
            return
        fingerprint = handle.fingerprint
        try:
            if fingerprint:
                entries = self._gather_warmup_entries(handle, fingerprint)
            else:
                # The worker runs cache-less or with an uncacheable
                # provider — there is nothing a seed could do.
                entries = []
            if not entries:
                with self._lock:
                    self._c_warmup_empty.inc()
                return
            request_id = handle.next_id()
            message = {
                "op": "cache_seed", "entries": entries, "id": request_id,
            }
            handle.channel.send(message)
            reply = self._await_reply(
                handle, request_id,
                time.monotonic() + self._WARMUP_TIMEOUT,
            )
            warmed = int(reply.get("warmed", 0)) if reply.get("ok") else 0
            with self._lock:
                if reply.get("ok"):
                    self._c_warmup_ok.inc()
                    if warmed:
                        self._c_warmup_entries.inc(warmed)
                else:
                    self._c_warmup_failed.inc()
        except (ReproError, OSError, TimeoutError):
            # Crucially *not* another restart: the channel may be fine
            # (a slow seed) or freshly broken (next dispatch handles
            # it); either way the replacement serves cold.
            with self._lock:
                self._c_warmup_failed.inc()

    def _gather_warmup_entries(
        self, handle: _WorkerHandle, fingerprint: str
    ) -> list[dict]:
        """The seed payload for one restarted shard, hottest first."""
        return [
            {"text": text, "fingerprint": fingerprint, "query": query}
            for text, query in self._shadow.hottest(
                self.warmup_keys,
                lambda key: self._ring.lookup(key) == handle.shard,
            )
        ]

    # -- dispatch --------------------------------------------------------------

    def route(self, text: str) -> int:
        """The shard owning a question's normalized keyspace slice."""
        return self._ring.lookup(TranslationCache.normalize(text))

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServingError("the shard manager is closed")

    def _roundtrip(
        self,
        handle: _WorkerHandle,
        payload: dict,
        timeout: float | None = None,
    ) -> dict:
        """Send one op and await its reply, restarting/retrying once on
        a crashed worker; raises :class:`ShardTimeoutError` on deadline,
        :class:`WorkerCrashedError` when the retry fails too."""
        budget = timeout if timeout is not None else self.request_timeout
        deadline = time.monotonic() + budget
        with handle.lock:
            last_error: BaseException | None = None
            for attempt in (1, 2):
                self._ensure_open()
                try:
                    if not handle.alive() or handle.channel is None:
                        raise ChannelClosedError(
                            f"shard {handle.shard} worker is not running"
                        )
                    request_id = handle.next_id()
                    message = dict(payload)
                    message["id"] = request_id
                    handle.channel.send(message)
                    reply = self._await_reply(handle, request_id, deadline)
                # TimeoutError IS an OSError (since Python 3.10), so
                # the deadline clause must come first or every expiry
                # would masquerade as a crash and trigger a restart.
                except TimeoutError as err:
                    self._breakers[handle.shard].record_failure()
                    raise ShardTimeoutError(
                        f"shard {handle.shard} did not answer within "
                        f"{budget:.3f}s",
                        shard=handle.shard,
                        budget=budget,
                    ) from err
                except (
                    ChannelClosedError, FrameProtocolError, OSError
                ) as err:
                    last_error = err
                    self._breakers[handle.shard].record_failure()
                    if attempt == 1 and not self._closed:
                        self._restart_locked(handle)
                        continue
                    raise WorkerCrashedError(
                        f"shard {handle.shard} worker died and the "
                        f"restart-retry failed: {err}",
                        shard=handle.shard,
                    ) from err
                self._breakers[handle.shard].record_success()
                if payload.get("op") == "stats" and reply.get("ok"):
                    # Refresh the carry-forward bookkeeping while the
                    # handle lock is still held: a restart's fold
                    # cannot interleave, so a pre-crash snapshot can
                    # never land *after* its own epoch was folded (which
                    # would double-count it).
                    text = reply.get("metrics")
                    try:
                        parsed = parse_prometheus_text(text)
                    except (TypeError, AttributeError, ValueError):
                        parsed = None  # malformed snapshot: keep the old
                    if parsed is not None:
                        with self._lock:
                            self._last_seen[handle.shard] = parsed
                return reply
        raise WorkerCrashedError(  # pragma: no cover - loop always exits
            f"shard {handle.shard} dispatch failed: {last_error}",
            shard=handle.shard,
        )

    def _await_reply(
        self, handle: _WorkerHandle, request_id: int, deadline: float
    ) -> dict:
        """Read frames until ``request_id``'s reply; drain stale ones.

        A stale reply (id below the current request) belongs to an
        earlier call that timed out — the worker finished it anyway.
        It is discarded here; an id *ahead* of the request is a
        protocol violation.
        """
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"deadline expired awaiting reply {request_id}"
                )
            reply = handle.channel.recv(timeout=remaining)
            reply_id = reply.get("id")
            if reply_id == request_id:
                return reply
            if isinstance(reply_id, int) and reply_id < request_id:
                continue
            raise FrameProtocolError(
                f"reply id {reply_id!r} is ahead of request "
                f"{request_id} on shard {handle.shard}"
            )

    def _observe_outcome(self, outcome: RemoteOutcome) -> None:
        """Feed the shadow index; free when warm restarts are off."""
        if (
            self._shadow is not None
            and outcome.ok
            and not outcome.degraded
            and outcome.query
        ):
            self._shadow.record(outcome.text, outcome.query)

    def _shed(
        self, shard: int, reason: str, count: int
    ) -> AdmissionRejected:
        with self._lock:
            if reason == "queue_full":
                self._c_shed_queue.inc(count)
            else:
                self._c_shed_breaker.inc(count)
        return AdmissionRejected(
            f"shard {shard} shed {count} request(s): {reason}",
            shard=shard,
            reason=reason,
            retry_after=self.retry_after,
        )

    def _admit(self, shard: int, count: int) -> _AdmissionGate:
        """Pass admission control or raise the shed error."""
        if not self._breakers[shard].allow():
            raise self._shed(shard, "breaker_open", count)
        gate = self._gates[shard]
        if not gate.try_enter():
            raise self._shed(shard, "queue_full", count)
        return gate

    # -- public request paths --------------------------------------------------

    def submit(
        self, text: str, timeout: float | None = None
    ) -> RemoteOutcome:
        """Route and serve one question.

        Worker-side translation failures come back as a non-``ok``
        :class:`RemoteOutcome`; serving-layer failures raise
        (:class:`AdmissionRejected`, :class:`ShardTimeoutError`,
        :class:`WorkerCrashedError`, :class:`ServingError`).
        """
        self._ensure_open()
        shard = self.route(text)
        gate = self._admit(shard, 1)
        try:
            reply = self._roundtrip(
                self._handles[shard],
                {"op": "translate", "text": text},
                timeout,
            )
        except ShardTimeoutError:
            with self._lock:
                self._c_deadline.inc()
            raise
        except (WorkerCrashedError, ServingError):
            with self._lock:
                self._c_dispatch_errors.inc()
            raise
        finally:
            gate.exit()
        outcome = RemoteOutcome.from_payload(text, shard, reply)
        self._observe_outcome(outcome)
        return outcome

    def submit_batch(
        self, texts: Sequence[str], timeout: float | None = None
    ) -> list[RemoteOutcome]:
        """Serve many questions, one batch frame per owning shard.

        Shards run their slices in parallel (real parallelism — they
        are processes); results come back in request order.  Nothing
        raises per-item: shed, timeout and crash outcomes are typed
        error entries, so one hot shard cannot sink the batch.
        """
        self._ensure_open()
        texts = [str(t) for t in texts]
        outcomes: list[RemoteOutcome | None] = [None] * len(texts)
        groups: dict[int, list[int]] = {}
        for index, text in enumerate(texts):
            groups.setdefault(self.route(text), []).append(index)

        def run(shard: int, indices: list[int]) -> None:
            group = [texts[i] for i in indices]
            try:
                gate = self._admit(shard, len(indices))
            except AdmissionRejected as exc:
                for i in indices:
                    outcomes[i] = RemoteOutcome.from_exception(
                        texts[i], shard, exc
                    )
                return
            try:
                reply = self._roundtrip(
                    self._handles[shard],
                    {"op": "batch", "texts": group},
                    timeout,
                )
            except ShardTimeoutError as exc:
                with self._lock:
                    self._c_deadline.inc(len(indices))
                for i in indices:
                    outcomes[i] = RemoteOutcome.from_exception(
                        texts[i], shard, exc
                    )
                return
            except (WorkerCrashedError, ServingError) as exc:
                with self._lock:
                    self._c_dispatch_errors.inc(len(indices))
                for i in indices:
                    outcomes[i] = RemoteOutcome.from_exception(
                        texts[i], shard, exc
                    )
                return
            finally:
                gate.exit()
            items = reply.get("items") or []
            for i, payload in zip(indices, items):
                outcome = RemoteOutcome.from_payload(
                    texts[i], shard, payload
                )
                self._observe_outcome(outcome)
                outcomes[i] = outcome
            if len(items) < len(indices):
                # A worker that answers short is a protocol bug; the
                # unanswered tail must still be accounted for.
                with self._lock:
                    self._c_dispatch_errors.inc(len(indices) - len(items))
                for i in indices[len(items):]:
                    outcomes[i] = RemoteOutcome(
                        text=texts[i],
                        shard=shard,
                        ok=False,
                        error_type="FrameProtocolError",
                        error_message="batch reply was short",
                    )

        items = sorted(groups.items())
        if len(items) == 1:
            run(*items[0])
        else:
            futures = [
                self._pool.submit(run, shard, indices)
                for shard, indices in items
            ]
            for future in futures:
                future.result()
        return [outcome for outcome in outcomes if outcome is not None]

    def lint(self, request: dict, timeout: float | None = None) -> dict:
        """Run worker-side static analysis (a ``query`` or ``question``
        payload); routed like a translation so lint traffic shares the
        owning shard's warmed indexes."""
        self._ensure_open()
        text = str(request.get("query") or request.get("question") or "")
        shard = self.route(text)
        gate = self._admit(shard, 1)
        try:
            payload = {"op": "lint"}
            payload.update(request)
            return self._roundtrip(self._handles[shard], payload, timeout)
        finally:
            gate.exit()

    def debug_stall(
        self, shard: int, seconds: float, timeout: float | None = None
    ) -> dict:
        """Occupy one shard for ``seconds`` (needs ``spec.debug_ops``).

        Bypasses admission control on purpose: the stall pins the
        worker while real requests fill (and then overflow) the
        bounded queue — the deterministic saturation the shedding and
        deadline tests are built on.
        """
        return self._roundtrip(
            self._handles[shard],
            {"op": "stall", "seconds": seconds},
            timeout,
        )

    # -- health + stats --------------------------------------------------------

    def ping(self, shard: int, timeout: float = 2.0) -> bool:
        """Probe one worker over the channel; False on any failure."""
        try:
            reply = self._roundtrip(
                self._handles[shard], {"op": "ping"}, timeout
            )
        except ReproError:
            return False
        return bool(reply.get("ok"))

    def health(self, ping: bool = False, timeout: float = 2.0) -> dict:
        """Per-shard liveness (and optional channel probes)."""
        report: dict = {}
        for handle in self._handles:
            entry: dict = {
                "alive": handle.alive(),
                "pid": handle.pid,
                "restarts": handle.restarts,
                "pending": self._gates[handle.shard].depth,
            }
            if ping and entry["alive"]:
                entry["ping"] = (
                    "ok" if self.ping(handle.shard, timeout) else "failed"
                )
            report[handle.shard] = entry
        return report

    def healthy(self) -> bool:
        return not self._closed and all(
            handle.alive() for handle in self._handles
        )

    @property
    def shards(self) -> int:
        return len(self._handles)

    @property
    def closed(self) -> bool:
        return self._closed

    def _probe(self, timeout: float) -> list[tuple[bool, Samples]]:
        """``(alive, lifetime snapshot)`` per shard, freshly probed.

        A successful ``stats`` roundtrip refreshes the last-seen
        snapshot inside :meth:`_roundtrip` (under the handle lock, so
        never racing a restart's fold); a failed probe keeps the last
        known one, so nothing moves backwards.
        """
        probed = []
        for handle in self._handles:
            try:
                self._roundtrip(handle, {"op": "stats"}, timeout)
                alive = True
            except ReproError:
                alive = False
            with self._lock:
                lifetime = merge_samples([
                    self._carry[handle.shard],
                    self._last_seen[handle.shard],
                ])
            probed.append((alive and handle.alive(), lifetime))
        return probed

    def stats(self, timeout: float = _PROBE_SECONDS) -> ServingStats:
        """The global view: per-shard snapshots, merged total, and the
        front-end counters; the serving counter identity holds in every
        snapshot because ``requests`` is derived, never sampled.

        Per-shard views and the merged total are **monotone
        non-decreasing** across worker crashes: a restart folds, never
        zeroes.
        """
        self._ensure_open()
        probed = self._probe(timeout)
        snapshots = tuple(
            ShardSnapshot(
                shard=handle.shard,
                pid=handle.pid,
                alive=alive,
                pending=self._gates[handle.shard].depth,
                restarts=handle.restarts,
                stats=ServiceStats.from_samples(lifetime),
            )
            for handle, (alive, lifetime) in zip(self._handles, probed)
        )
        with self._lock:
            shed_queue = int(self._c_shed_queue.value)
            shed_breaker = int(self._c_shed_breaker.value)
            dispatch_errors = int(self._c_dispatch_errors.value)
            deadline_expired = int(self._c_deadline.value)
            restarts = int(self._c_restarts.value)
            warmups_ok = int(self._c_warmup_ok.value)
            warmups_empty = int(self._c_warmup_empty.value)
            warmups_failed = int(self._c_warmup_failed.value)
            warmup_entries = int(self._c_warmup_entries.value)
        return ServingStats(
            shards=snapshots,
            total=ServiceStats.from_samples(
                merge_samples(lifetime for _, lifetime in probed)
            ),
            shed=shed_queue + shed_breaker,
            shed_queue_full=shed_queue,
            shed_breaker_open=shed_breaker,
            dispatch_errors=dispatch_errors,
            deadline_expired=deadline_expired,
            restarts=restarts,
            cache_warmups_ok=warmups_ok,
            cache_warmups_empty=warmups_empty,
            cache_warmups_failed=warmups_failed,
            cache_warmup_entries=warmup_entries,
        )

    def expose(self) -> str:
        """The tier's Prometheus exposition (``GET /metrics``).

        The manager's own ``serving_*`` series, then every shard's
        lifetime worker series with a ``shard="i"`` label — the same
        probed snapshots :meth:`stats` reads, one header per family.
        """
        probed = self._probe(_PROBE_SECONDS)
        return render_samples(merge_samples([
            self.registry.samples(),
            *(
                label_samples(lifetime, shard=str(handle.shard))
                for handle, (_, lifetime) in zip(self._handles, probed)
            ),
        ]))

    # -- shutdown --------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Graceful, idempotent shutdown.

        Marks the manager closed (new dispatches raise), sends each
        worker a ``shutdown`` op when its channel can be acquired
        within the drain budget (in-flight requests finish first),
        joins every runner against one shared deadline, and terminates
        then kills process workers that outlive it.  Calling it again
        — or concurrently — is a no-op.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        drain_deadline = time.monotonic() + timeout
        for handle in self._handles:
            budget = max(0.0, drain_deadline - time.monotonic())
            acquired = handle.lock.acquire(timeout=budget)
            try:
                if acquired and handle.channel is not None:
                    try:
                        handle.channel.send({
                            "op": "shutdown", "id": handle.next_id(),
                        })
                    except (ReproError, OSError):
                        pass
            finally:
                if acquired:
                    handle.lock.release()
        for handle in self._handles:
            runner = handle.process
            if runner is not None:
                runner.join(max(0.0, drain_deadline - time.monotonic()))
                if (
                    not isinstance(runner, threading.Thread)
                    and runner.is_alive()
                ):
                    runner.terminate()
                    runner.join(2.0)
                    if runner.is_alive():  # pragma: no cover - stuck
                        runner.kill()
                        runner.join(2.0)
            if handle.channel is not None:
                handle.channel.close()
        for channel, *_ in self._pending_hellos.values():
            channel.close()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "ShardManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
