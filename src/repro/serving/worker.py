"""The shard worker: a spawn-safe process entrypoint and its op loop.

A worker is one process (or, in tests, one thread — the protocol cannot
tell) that dials back to the shard manager's loopback listener, builds
its *own* translator stack from the pickled
:class:`~repro.serving.config.WorkerSpec`, announces readiness with a
``hello`` frame, and then serves ops one frame at a time:

========== =======================================================
op         semantics
========== =======================================================
hello      worker → manager only: shard id + auth token + pid;
           sent *after* the service is built, so receiving it means
           the shard is ready for traffic
ping       health probe; answers ``pong`` with the worker's pid
translate  one question through the shard's caching service
batch      many questions through ``translate_batch`` (single-
           flight dedup and the LRU stay shard-local — which is why
           routing is consistent-hash in the first place)
lint       static analysis of a saved query or a question
stats      the shard's metrics registry as Prometheus text
           (``registry.expose()``); the manager parses it back and
           reads it through ``ServiceStats.from_samples``
cache_seed replay (text, fingerprint, query text) entries into this
           shard's cache (counted as ``warmed``, never as hits or
           insertions; malformed entries are refused) — the
           warm-restart protocol: the manager sends a restarted
           shard its shadow index's hottest entries
stall      diagnostic sleep (only with ``spec.debug_ops``); lets
           tests occupy a shard deterministically
shutdown   acknowledge, then leave the loop (graceful drain)
========== =======================================================

Every reply echoes the request's correlation ``id``.  Errors never
escape the loop: translation failures become typed error payloads
(class name, message, rephrasing tips), and an unexpected exception is
reported as such rather than killing the worker — only a closed
channel or a ``shutdown`` op ends it.  The entrypoint must stay
import-safe under the ``spawn`` start method: no module-level state is
touched until :func:`worker_main` runs.
"""

from __future__ import annotations

import os
import socket
import time
from typing import TYPE_CHECKING

from repro.errors import ChannelClosedError, ReproError, VerificationError
from repro.serving.config import WorkerSpec
from repro.serving.frames import KNOWN_OPS, FrameChannel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import TranslationService

__all__ = ["serve_worker", "worker_main"]

#: How long a freshly spawned worker waits for the manager's listener.
_CONNECT_TIMEOUT = 60.0


def error_payload(exc: BaseException) -> dict:
    """A typed, JSON-safe rendering of one failure."""
    payload = {
        "type": type(exc).__name__,
        "message": str(exc),
        "repro": isinstance(exc, ReproError),
    }
    if isinstance(exc, VerificationError):
        payload["tips"] = list(exc.tips)
    return payload


def _translate_one(service: "TranslationService", text: str) -> dict:
    """One question's outcome payload (shared by translate and batch)."""
    cache = service.cache
    hits_before = cache.stats().hits if cache is not None else 0
    try:
        result = service.translate(text)
    except ReproError as exc:
        return {"ok": False, "error": error_payload(exc)}
    except Exception as exc:  # never kill the worker for one question
        return {"ok": False, "error": error_payload(exc)}
    # The worker handles one frame at a time, so a hits delta of one
    # can only come from this request.
    cached = (
        cache is not None and cache.stats().hits > hits_before
    )
    return {
        "ok": True,
        "query": result.query_text,
        "degraded": result.trace.degraded,
        "cached": cached,
    }


def _handle_batch(service: "TranslationService", texts: list[str]) -> dict:
    items = service.translate_batch([str(t) for t in texts])
    payloads = []
    for item in items:
        if item.ok:
            payloads.append({
                "ok": True,
                "query": item.query_text,
                "degraded": item.degraded,
                "cached": item.cached,
            })
        else:
            payloads.append({
                "ok": False, "error": error_payload(item.error),
            })
    return {"ok": True, "items": payloads}


def _handle_lint(service: "TranslationService", request: dict) -> dict:
    from repro.analysis import lint_query_source, lint_questions

    if "query" in request:
        outcome = lint_query_source(
            str(request["query"]),
            ontology=service.nl2cm.ontology,
            subject="request",
        )
    elif "question" in request:
        outcome = lint_questions(
            [str(request["question"])], service.nl2cm
        )
    else:
        return {
            "ok": False,
            "error": {
                "type": "FrameProtocolError",
                "message": "lint needs a 'query' or a 'question' field",
                "repro": True,
            },
        }
    diagnostics = [
        {
            "subject": report.subject,
            "severity": str(diagnostic.severity),
            "rule": diagnostic.rule,
            "message": diagnostic.message,
            "location": (
                str(diagnostic.location) if diagnostic.location else None
            ),
        }
        for report in outcome.reports
        for diagnostic in report.diagnostics
    ]
    return {
        "ok": True,
        "exit_code": outcome.exit_code,
        "errors": outcome.errors,
        "warnings": outcome.warnings,
        "infos": outcome.infos,
        "counts": outcome.counts(),
        "diagnostics": diagnostics,
    }


def _handle(
    request: dict, service: "TranslationService", spec: WorkerSpec
) -> dict:
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "op": "pong", "pid": os.getpid()}
    if op == "translate":
        return _translate_one(service, str(request.get("text", "")))
    if op == "batch":
        texts = request.get("texts")
        if not isinstance(texts, list):
            return {
                "ok": False,
                "error": {
                    "type": "FrameProtocolError",
                    "message": "batch needs a 'texts' list",
                    "repro": True,
                },
            }
        return _handle_batch(service, texts)
    if op == "lint":
        return _handle_lint(service, request)
    if op == "stats":
        # The loop serves one frame at a time, so no request is half
        # counted while the registry is exposed.
        return {"ok": True, "metrics": service.registry.expose()}
    if op == "cache_seed":
        entries = request.get("entries")
        if not isinstance(entries, list):
            return {
                "ok": False,
                "error": {
                    "type": "FrameProtocolError",
                    "message": "cache_seed needs an 'entries' list",
                    "repro": True,
                },
            }
        warmed, refused = service.seed_cache(entries)
        return {"ok": True, "warmed": warmed, "refused": refused}
    if op == "stall" and spec.debug_ops:
        time.sleep(float(request.get("seconds", 0.0)))
        return {"ok": True}
    if op == "shutdown":
        return {"ok": True, "bye": True}
    return {
        "ok": False,
        "error": {
            "type": "FrameProtocolError",
            "message": (
                f"unknown op {op!r} (known: "
                f"{', '.join(sorted(KNOWN_OPS))})"
            ),
            "repro": True,
        },
    }


def serve_worker(
    channel: FrameChannel,
    service: "TranslationService",
    spec: WorkerSpec,
) -> None:
    """The op loop: one request frame in, one reply frame out, until
    the channel closes or a ``shutdown`` op arrives."""
    while True:
        try:
            request = channel.recv()
        except (ChannelClosedError, OSError):
            break
        try:
            reply = _handle(request, service, spec)
        except Exception as exc:  # defensive: the loop must survive
            reply = {"ok": False, "error": error_payload(exc)}
        reply["id"] = request.get("id")
        try:
            channel.send(reply)
        except (ChannelClosedError, OSError):
            break
        if request.get("op") == "shutdown":
            break


def worker_main(
    host: str,
    port: int,
    token: str,
    shard: int,
    spec: WorkerSpec | None = None,
) -> None:
    """Connect back to the manager, build the stack, serve until told.

    This is the whole worker lifecycle, shared verbatim by process and
    thread workers; the ``spawn`` entrypoint below only adds child-
    process signal hygiene around it.
    """
    spec = spec or WorkerSpec()
    sock = socket.create_connection((host, port), timeout=_CONNECT_TIMEOUT)
    channel = FrameChannel(sock)
    try:
        service = spec.build_service()
        # hello after construction: receiving it means "ready".  The
        # fingerprint is what the manager stamps on the cache entries
        # it replays into this worker on a warm restart.
        channel.send({
            "op": "hello",
            "shard": shard,
            "token": token,
            "pid": os.getpid(),
            "fingerprint": service.cache_fingerprint(),
        })
        serve_worker(channel, service, spec)
    finally:
        channel.close()


def _process_entry(
    host: str, port: int, token: str, shard: int, spec: WorkerSpec
) -> None:  # pragma: no cover - runs only inside the child process
    """The ``multiprocessing`` target: signal hygiene + worker_main.

    SIGINT is ignored so a ^C in an interactive ``--serve`` session
    reaches only the front-end, which drains and shuts workers down
    over the protocol instead of them dying mid-request.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    worker_main(host, port, token, shard, spec)
