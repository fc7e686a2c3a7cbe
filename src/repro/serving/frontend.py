"""The HTTP/JSON front-end over a :class:`ShardManager`.

A stdlib ``ThreadingHTTPServer`` (one daemon accept thread, one handler
thread per connection) translating HTTP into worker-tier calls:

=======================  ====================================================
endpoint                 semantics
=======================  ====================================================
``POST /translate``      ``{"question": ...}`` → one translation; worker-
                         side failures are typed JSON errors (422 for
                         question problems, 500 for unexpected ones)
``POST /batch``          ``{"questions": [...]}`` → per-question outcomes in
                         request order plus summary counts; always 200 —
                         shed/crashed slices are typed error entries
``POST /lint``           ``{"query": ...}`` or ``{"question": ...}`` →
                         worker-side static analysis diagnostics
``GET /stats``           the merged :class:`ServingStats` view (JSON; add
                         ``?format=panel`` for the admin-panel text render)
``GET /healthz``         200 with per-shard liveness while every worker is
                         alive, 503 otherwise (load-balancer probe shape)
``GET /metrics``         Prometheus text exposition of the whole tier: the
                         serving + HTTP series, then every shard's worker
                         series labelled ``shard="i"``
=======================  ====================================================

Serving-layer outcomes map onto status codes the way an operator
expects: admission shed → **429** with a ``Retry-After`` header,
front-end deadline → **504**, crashed-worker dispatch failure or a
closed manager → **503**, malformed request → **400**.  Everything the
server returns is JSON except ``/metrics`` and the panel render.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    AdmissionRejected,
    ReproError,
    ServingError,
    ShardTimeoutError,
    WorkerCrashedError,
)
from repro.obs.server import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.serving.shards import RemoteOutcome, ShardManager

__all__ = ["HTTPFrontend"]

#: Request bodies above this are refused with 413 before parsing.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Worker-reported error types that are the *question's* fault (HTTP
#: 422); anything else repro-typed is treated the same, while
#: unexpected (non-repro) errors are 500s.
_DEADLINE_ERROR_TYPES = frozenset({"DeadlineExceeded", "StageTimeout"})


def _status_for_outcome(outcome: RemoteOutcome) -> int:
    """The HTTP status of one non-``ok`` translate outcome."""
    if outcome.error_type in _DEADLINE_ERROR_TYPES:
        return 504
    if outcome.error_type == "AdmissionRejected":
        return 429
    if outcome.error_type in ("WorkerCrashedError", "ServingError"):
        return 503
    if outcome.error_type == "UnexpectedTranslationError":
        return 500
    return 422


class _Server(ThreadingHTTPServer):
    # Non-daemon handler threads + block_on_close: server_close() joins
    # in-flight handlers, which is the graceful-drain half of shutdown.
    # A handler idle between keep-alive requests would block that join
    # for as long as its client stays connected, so server_close() first
    # shuts the read side of idle connections (their pending read sees
    # EOF), and busy handlers close theirs once the response is out.
    daemon_threads = False
    block_on_close = True
    frontend: "HTTPFrontend"

    def __init__(self, address, handler_class):
        super().__init__(address, handler_class)
        self._conn_lock = threading.Lock()
        self._idle: dict[_Handler, bool] = {}
        self._draining = False

    def track(self, handler: "_Handler", idle: bool) -> bool:
        """Record a connection's state; False once the server drains."""
        with self._conn_lock:
            self._idle[handler] = idle
            draining = self._draining
        if draining and idle:
            handler.shut_read()
        return not draining

    def untrack(self, handler: "_Handler") -> None:
        with self._conn_lock:
            self._idle.pop(handler, None)

    def server_close(self) -> None:
        with self._conn_lock:
            self._draining = True
            idle = [h for h, is_idle in self._idle.items() if is_idle]
        for handler in idle:
            handler.shut_read()
        super().server_close()


class _Handler(BaseHTTPRequestHandler):
    server_version = "nl2cm-serving/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass  # request logging is the metrics' job, not stderr's

    def handle(self):
        self.server.track(self, idle=True)
        try:
            super().handle()
        finally:
            self.server.untrack(self)

    def parse_request(self):
        # The request line has arrived: this connection is now busy.
        self.server.track(self, idle=False)
        return super().parse_request()

    def handle_one_request(self):
        super().handle_one_request()
        if not self.server.track(self, idle=True):
            self.close_connection = True  # draining: no next request

    def shut_read(self) -> None:
        """EOF for the pending read; received bytes stay readable."""
        try:
            self.connection.shutdown(socket.SHUT_RD)
        except OSError:  # already closed by the peer
            pass

    def do_GET(self):  # noqa: N802 - http.server API
        self.server.frontend.dispatch(self, "GET")

    def do_POST(self):  # noqa: N802 - http.server API
        self.server.frontend.dispatch(self, "POST")


class HTTPFrontend:
    """The serving tier's HTTP face.

    Args:
        manager: the worker tier to serve.  The front-end *borrows* it:
            :meth:`close` stops the HTTP server but leaves the manager
            to its owner (the CLI closes both, in order).
        host: bind address (loopback by default).
        port: bind port; ``0`` picks a free one (see :attr:`port`).
        timeout: per-request deadline handed to the manager; ``None``
            uses the manager's default.
    """

    def __init__(
        self,
        manager: ShardManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = None,
    ):
        self.manager = manager
        self.timeout = timeout
        registry = manager.registry
        self._m_http = registry.counter(
            "serving_http_requests_total",
            "HTTP requests served by the front-end, by endpoint and "
            "status code.",
            labelnames=("endpoint", "status"),
        )
        self._m_http_seconds = registry.histogram(
            "serving_http_request_seconds",
            "Front-end request latency (admission, dispatch and worker "
            "time included), by endpoint.",
            labelnames=("endpoint",),
        )
        self._close_lock = threading.Lock()
        self._closed = False
        self._server = _Server((host, port), _Handler)
        self._server.frontend = self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="serving-http-frontend",
            daemon=True,
        )
        self._thread.start()

    # -- lifecycle -------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop accepting, drain in-flight handlers, release the port.

        In-flight requests are answered; keep-alive connections idle
        between requests are closed rather than waited on.

        Idempotent; does **not** close the manager (callers own that
        ordering — HTTP first so no new work arrives, workers second).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(10.0)

    def __enter__(self) -> "HTTPFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing ------------------------------------------------------

    def dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        """Route one HTTP request; all responses flow through here so
        the http metrics see every outcome, including handler bugs."""
        started = time.perf_counter()
        parsed = urlparse(handler.path)
        path = parsed.path.rstrip("/") or "/"
        endpoint = path if path in (
            "/translate", "/batch", "/lint", "/stats", "/healthz", "/metrics",
        ) else "other"
        try:
            status = self._route(handler, method, path, parsed.query)
        except (ConnectionError, BrokenPipeError):  # client went away
            status = 499
        except Exception as exc:  # defensive: a handler bug is a 500
            status = self._send_json(
                handler, 500,
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
            )
        self._m_http.labels(endpoint=endpoint, status=str(status)).inc()
        self._m_http_seconds.labels(endpoint=endpoint).observe(
            time.perf_counter() - started
        )

    def _route(
        self,
        handler: BaseHTTPRequestHandler,
        method: str,
        path: str,
        query: str,
    ) -> int:
        if method == "GET":
            if path == "/stats":
                return self._get_stats(handler, query)
            if path == "/healthz":
                return self._get_healthz(handler)
            if path == "/metrics":
                return self._get_metrics(handler)
            if path in ("/translate", "/batch", "/lint"):
                return self._send_json(
                    handler, 405,
                    {"error": {
                        "type": "MethodNotAllowed",
                        "message": f"{path} takes POST",
                    }},
                )
            return self._not_found(handler)
        if path == "/translate":
            return self._post_translate(handler)
        if path == "/batch":
            return self._post_batch(handler)
        if path == "/lint":
            return self._post_lint(handler)
        if path in ("/stats", "/healthz", "/metrics"):
            return self._send_json(
                handler, 405,
                {"error": {
                    "type": "MethodNotAllowed",
                    "message": f"{path} takes GET",
                }},
            )
        return self._not_found(handler)

    def _not_found(self, handler) -> int:
        return self._send_json(
            handler, 404,
            {"error": {
                "type": "NotFound",
                "message": "try /translate, /batch, /lint, /stats, "
                           "/healthz or /metrics",
            }},
        )

    def _read_json(self, handler) -> dict:
        """The request body as a JSON object, or raise ``_BadRequest``."""
        try:
            length = int(handler.headers.get("Content-Length", "0"))
        except ValueError:
            handler.close_connection = True  # body left unread
            raise _BadRequest("Content-Length must be an integer")
        if length < 0:
            # A negative length must never reach rfile.read(): read(-5)
            # means read-to-EOF, which on a keep-alive connection blocks
            # until the client gives up (a request-smuggling/DoS shape).
            # The declared length is a lie, so the stream position is
            # unknowable — close instead of draining.
            handler.close_connection = True
            raise _BadRequest("Content-Length must be non-negative")
        if length == 0:
            # Nothing was declared, so nothing is read — the connection
            # stays aligned and reusable.
            raise _BadRequest("a JSON request body is required")
        if length > MAX_BODY_BYTES:
            # Refuse without draining; the connection cannot be reused
            # (the client may see the response or a broken pipe,
            # depending on how far its send got — both mean "too big").
            handler.close_connection = True
            raise _BadRequest(
                f"request body exceeds {MAX_BODY_BYTES} bytes", status=413
            )
        raw = handler.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise _BadRequest(f"request body is not valid JSON: {err}")
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        return body

    def _send_json(self, handler, status: int, payload: dict,
                   headers: tuple[tuple[str, str], ...] = ()) -> int:
        body = json.dumps(payload, indent=2).encode("utf-8")
        return self._send_bytes(
            handler, status, body, "application/json; charset=utf-8", headers
        )

    def _send_bytes(self, handler, status: int, body: bytes,
                    content_type: str,
                    headers: tuple[tuple[str, str], ...] = ()) -> int:
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            handler.send_header(name, value)
        handler.end_headers()
        handler.wfile.write(body)
        return status

    def _send_serving_error(self, handler, exc: ReproError) -> int:
        """Map a serving-layer exception onto its HTTP shape."""
        payload = {
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        if isinstance(exc, AdmissionRejected):
            payload["error"]["reason"] = exc.reason
            retry_after = max(1, math.ceil(exc.retry_after))
            return self._send_json(
                handler, 429, payload,
                headers=(("Retry-After", str(retry_after)),),
            )
        if isinstance(exc, ShardTimeoutError):
            return self._send_json(handler, 504, payload)
        # WorkerCrashedError, closed-manager ServingError, anything else
        # the tier could not serve through.
        return self._send_json(handler, 503, payload)

    # -- endpoints -------------------------------------------------------------

    def _post_translate(self, handler) -> int:
        try:
            body = self._read_json(handler)
            question = body.get("question") or body.get("text")
            if not isinstance(question, str) or not question.strip():
                raise _BadRequest(
                    "a non-empty 'question' string is required"
                )
        except _BadRequest as exc:
            return self._send_json(handler, exc.status, exc.payload())
        try:
            outcome = self.manager.submit(question, timeout=self.timeout)
        except (
            AdmissionRejected, ShardTimeoutError,
            WorkerCrashedError, ServingError,
        ) as exc:
            return self._send_serving_error(handler, exc)
        status = 200 if outcome.ok else _status_for_outcome(outcome)
        return self._send_json(handler, status, outcome.to_dict())

    def _post_batch(self, handler) -> int:
        try:
            body = self._read_json(handler)
            questions = body.get("questions") or body.get("texts")
            if not isinstance(questions, list) or not questions:
                raise _BadRequest(
                    "a non-empty 'questions' list is required"
                )
            if not all(isinstance(q, str) for q in questions):
                raise _BadRequest("every question must be a string")
        except _BadRequest as exc:
            return self._send_json(handler, exc.status, exc.payload())
        try:
            outcomes = self.manager.submit_batch(
                questions, timeout=self.timeout
            )
        except ServingError as exc:  # closed manager; per-item errors
            return self._send_serving_error(handler, exc)  # never raise
        ok = sum(1 for o in outcomes if o.ok)
        shed = sum(1 for o in outcomes if o.shed)
        return self._send_json(handler, 200, {
            "questions": len(outcomes),
            "ok": ok,
            "shed": shed,
            "failed": len(outcomes) - ok - shed,
            "items": [o.to_dict() for o in outcomes],
        })

    def _post_lint(self, handler) -> int:
        try:
            body = self._read_json(handler)
            if not isinstance(
                body.get("query") or body.get("question"), str
            ):
                raise _BadRequest(
                    "a 'query' or 'question' string is required"
                )
        except _BadRequest as exc:
            return self._send_json(handler, exc.status, exc.payload())
        request = {
            key: body[key] for key in ("query", "question") if key in body
        }
        try:
            reply = self.manager.lint(request, timeout=self.timeout)
        except (
            AdmissionRejected, ShardTimeoutError,
            WorkerCrashedError, ServingError,
        ) as exc:
            return self._send_serving_error(handler, exc)
        reply.pop("id", None)
        status = 200 if reply.get("ok") else 422
        return self._send_json(handler, status, reply)

    def _get_stats(self, handler, query: str) -> int:
        try:
            stats = self.manager.stats()
        except ServingError as exc:
            return self._send_serving_error(handler, exc)
        wants_panel = parse_qs(query).get("format", [""])[0] == "panel"
        if wants_panel:
            from repro.ui.admin import render_serving_stats

            body = render_serving_stats(stats).encode("utf-8")
            return self._send_bytes(
                handler, 200, body, "text/plain; charset=utf-8"
            )
        return self._send_json(handler, 200, stats.to_dict())

    def _get_healthz(self, handler) -> int:
        report = self.manager.health()
        healthy = self.manager.healthy()
        return self._send_json(
            handler,
            200 if healthy else 503,
            {
                "status": "ok" if healthy else "degraded",
                "shards": {str(k): v for k, v in report.items()},
            },
        )

    def _get_metrics(self, handler) -> int:
        body = self.manager.expose().encode("utf-8")
        return self._send_bytes(
            handler, 200, body, METRICS_CONTENT_TYPE
        )


class _BadRequest(Exception):
    """An input problem caught before any worker was involved."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status

    def payload(self) -> dict:
        return {"error": {"type": "BadRequest", "message": str(self)}}
