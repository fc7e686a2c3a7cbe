"""Tests for the HTTP/JSON front-end: endpoints, status mapping,
load shedding over HTTP, and the metrics exposition."""

import http.client
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.obs.metrics import parse_prometheus_text
from repro.serving import HTTPFrontend, ShardManager, WorkerSpec

from tests.serving.conftest import SUPPORTED, UNSUPPORTED


@pytest.fixture(scope="module")
def frontend(thread_manager):
    front = HTTPFrontend(thread_manager)
    yield front
    front.close()


def _request(front, path, body=None, method=None):
    """One HTTP exchange; returns (status, headers, parsed body)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        front.address + path,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            raw = response.read()
            status, headers = response.status, dict(response.headers)
    except urllib.error.HTTPError as err:
        raw = err.read()
        status, headers = err.code, dict(err.headers)
    content_type = headers.get("Content-Type", "")
    parsed = (
        json.loads(raw) if content_type.startswith("application/json")
        else raw.decode("utf-8")
    )
    return status, headers, parsed


class TestTranslate:
    def test_ok(self, frontend):
        status, _, body = _request(
            frontend, "/translate", {"question": SUPPORTED[0]}
        )
        assert status == 200
        assert body["ok"]
        assert body["query"].startswith("SELECT VARIABLES")
        assert body["shard"] in (0, 1)

    def test_unsupported_is_422_with_tips(self, frontend):
        status, _, body = _request(
            frontend, "/translate", {"question": UNSUPPORTED}
        )
        assert status == 422
        assert body["error"]["type"] == "VerificationError"
        assert body["error"]["tips"]

    def test_missing_question_is_400(self, frontend):
        status, _, body = _request(frontend, "/translate", {"nope": 1})
        assert status == 400
        assert body["error"]["type"] == "BadRequest"

    def test_empty_body_is_400(self, frontend):
        status, _, body = _request(
            frontend, "/translate", method="POST"
        )
        assert status == 400

    def test_invalid_json_is_400(self, frontend):
        request = urllib.request.Request(
            frontend.address + "/translate",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_non_object_body_is_400(self, frontend):
        request = urllib.request.Request(
            frontend.address + "/translate",
            data=b'["a list"]',
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_oversized_body_is_refused(self, frontend):
        """The server refuses the body without draining it: the client
        sees the 413, or a broken pipe if its send was still in
        flight — either way the oversized request never reaches a
        worker."""
        from repro.serving.frontend import MAX_BODY_BYTES

        request = urllib.request.Request(
            frontend.address + "/translate",
            data=b"x" * (MAX_BODY_BYTES + 1),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.URLError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        if isinstance(excinfo.value, urllib.error.HTTPError):
            assert excinfo.value.code == 413

    def test_negative_content_length_is_400_and_closes(self, frontend):
        """Regression: a negative Content-Length used to flow into
        ``rfile.read()``, where ``read(-5)`` means read-to-EOF — on a
        keep-alive connection the stream position becomes unknowable.
        It must be refused up front and the connection closed."""
        parts = urlsplit(frontend.address)
        raw = (
            "POST /translate HTTP/1.1\r\n"
            f"Host: {parts.netloc}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: -5\r\n"
            "\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (parts.hostname, parts.port), timeout=30
        ) as sock:
            sock.sendall(raw)
            sock.settimeout(10)
            data = b""
            closed = False
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        closed = True
                        break
                    data += chunk
            except socket.timeout:
                closed = False
        status_line = data.split(b"\r\n", 1)[0]
        assert b" 400 " in status_line, status_line
        assert b"non-negative" in data
        assert closed, "a desynced connection must be closed, not reused"

    def test_non_numeric_content_length_is_400(self, frontend):
        parts = urlsplit(frontend.address)
        raw = (
            "POST /translate HTTP/1.1\r\n"
            f"Host: {parts.netloc}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: banana\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (parts.hostname, parts.port), timeout=30
        ) as sock:
            sock.sendall(raw)
            sock.settimeout(10)
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
        assert b" 400 " in data.split(b"\r\n", 1)[0]

    def test_get_is_405(self, frontend):
        status, _, _ = _request(frontend, "/translate")
        assert status == 405


class TestBatch:
    def test_mixed_batch_is_200_with_summary(self, frontend):
        status, _, body = _request(
            frontend, "/batch",
            {"questions": SUPPORTED + [UNSUPPORTED]},
        )
        assert status == 200
        assert body["questions"] == 4
        assert body["ok"] == 3
        assert body["failed"] == 1
        assert body["shed"] == 0
        assert [item["question"] for item in body["items"]] == (
            SUPPORTED + [UNSUPPORTED]
        )

    def test_empty_batch_is_400(self, frontend):
        status, _, _ = _request(frontend, "/batch", {"questions": []})
        assert status == 400

    def test_non_string_question_is_400(self, frontend):
        status, _, _ = _request(
            frontend, "/batch", {"questions": ["ok", 7]}
        )
        assert status == 400


class TestLint:
    def test_lint_question(self, frontend):
        status, _, body = _request(
            frontend, "/lint", {"question": SUPPORTED[0]}
        )
        assert status == 200
        assert body["ok"]
        assert body["exit_code"] == 0
        assert "id" not in body

    def test_lint_query(self, frontend):
        status, _, body = _request(
            frontend, "/lint",
            {"query": "SELECT VARIABLES\nWHERE\n{$x instanceOf Place}"},
        )
        assert status == 200
        assert "diagnostics" in body

    def test_lint_without_input_is_400(self, frontend):
        status, _, _ = _request(frontend, "/lint", {"other": True})
        assert status == 400


class TestStatsAndHealth:
    def test_stats_identity_holds(self, frontend):
        _request(frontend, "/translate", {"question": SUPPORTED[0]})
        status, _, body = _request(frontend, "/stats")
        assert status == 200
        assert body["identity_holds"] is True
        assert body["requests"] == body["accounted"]
        assert len(body["shards"]) == 2

    def test_stats_panel_render(self, frontend):
        status, headers, body = _request(
            frontend, "/stats?format=panel"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "== sharded serving ==" in body
        assert "identity: holds" in body

    def test_healthz_ok(self, frontend):
        status, _, body = _request(frontend, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert set(body["shards"]) == {"0", "1"}

    def test_post_to_stats_is_405(self, frontend):
        status, _, _ = _request(frontend, "/stats", {"x": 1})
        assert status == 405

    def test_unknown_path_is_404(self, frontend):
        status, _, body = _request(frontend, "/nope")
        assert status == 404
        assert body["error"]["type"] == "NotFound"


class TestMetrics:
    def test_exposition_parses_and_has_serving_series(self, frontend):
        _request(frontend, "/translate", {"question": SUPPORTED[0]})
        status, headers, body = _request(frontend, "/metrics")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        metrics = parse_prometheus_text(body)
        assert metrics["serving_shed_total"]["type"] == "counter"
        assert metrics["serving_http_requests_total"]["type"] == "counter"
        assert metrics["serving_pending"]["type"] == "gauge"
        assert metrics["serving_workers_alive"]["samples"]

    def test_http_counters_label_endpoint_and_status(self, frontend):
        _request(frontend, "/translate", {"question": UNSUPPORTED})
        _, _, body = _request(frontend, "/metrics")
        metrics = parse_prometheus_text(body)
        samples = metrics["serving_http_requests_total"]["samples"]
        key = (
            "serving_http_requests_total",
            (("endpoint", "/translate"), ("status", "422")),
        )
        assert samples.get(key, 0) >= 1


    def test_shard_summed_requests_equal_stats_total(self, frontend):
        """One set of numbers: the workers' request counters in
        /metrics, summed over shards, are /stats total.requests."""
        _request(
            frontend, "/batch", {"questions": SUPPORTED + [UNSUPPORTED]}
        )
        _, _, body = _request(frontend, "/metrics")
        samples = parse_prometheus_text(body)["nl2cm_requests_total"][
            "samples"
        ]
        assert {dict(labels)["shard"] for _, labels in samples} == {
            "0", "1",
        }
        _, _, stats = _request(frontend, "/stats")
        assert sum(samples.values()) == stats["total"]["requests"] > 0


@pytest.mark.slow
class TestSpawnMetrics:
    def test_worker_histograms_reach_metrics_with_shard_label(self):
        manager = ShardManager(
            shards=2,
            spec=WorkerSpec(cache_size=8),
            start_method="spawn",
            connect_timeout=120.0,
        )
        front = HTTPFrontend(manager)
        try:
            for question in SUPPORTED:
                _request(front, "/translate", {"question": question})
            _, _, body = _request(front, "/metrics")
        finally:
            front.close()
            manager.close()
        assert re.search(
            r'^nl2cm_stage_seconds_bucket\{[^}]*shard="[01]"[^}]*\} \d',
            body, re.MULTILINE,
        )
        types = [
            line.split()[2] for line in body.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert len(types) == len(set(types))
        parsed = parse_prometheus_text(body)
        counts = [
            value
            for (name, _), value in parsed["nl2cm_stage_seconds"][
                "samples"
            ].items()
            if name == "nl2cm_stage_seconds_count"
        ]
        assert counts and all(value > 0 for value in counts)


class TestLoadShedding:
    def test_saturation_returns_429_with_retry_after(self):
        """The acceptance scenario: saturate a 1-shard tier and require
        HTTP 429 + Retry-After, with the sheds visible in
        serving_shed_total."""
        manager = ShardManager(
            shards=1,
            spec=WorkerSpec(cache_size=0, debug_ops=True),
            start_method="thread",
            max_pending=1,
            retry_after=3.0,
        )
        front = HTTPFrontend(manager)
        try:
            stall = threading.Thread(
                target=manager.debug_stall, args=(0, 1.0)
            )
            stall.start()
            time.sleep(0.1)
            filler = threading.Thread(
                target=_request, args=(
                    front, "/translate", {"question": SUPPORTED[0]}
                ),
            )
            filler.start()
            time.sleep(0.15)
            status, headers, body = _request(
                front, "/translate", {"question": SUPPORTED[1]}
            )
            assert status == 429
            assert headers["Retry-After"] == "3"
            assert body["error"]["type"] == "AdmissionRejected"
            assert body["error"]["reason"] == "queue_full"
            stall.join(15.0)
            filler.join(15.0)
            _, _, exposition = _request(front, "/metrics")
            metrics = parse_prometheus_text(exposition)
            shed = metrics["serving_shed_total"]["samples"].get(
                ("serving_shed_total", (("reason", "queue_full"),)), 0
            )
            assert shed >= 1
            _, _, stats = _request(front, "/stats")
            assert stats["identity_holds"] is True
            assert stats["shed"] >= 1
        finally:
            front.close()
            manager.close()


class TestFrontendLifecycle:
    def test_close_is_idempotent(self, thread_manager):
        front = HTTPFrontend(thread_manager)
        address = front.address
        front.close()
        front.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(address + "/healthz", timeout=2)

    def test_context_manager(self, thread_manager):
        with HTTPFrontend(thread_manager) as front:
            status, _, _ = _request(front, "/healthz")
            assert status == 200

    def test_closed_manager_maps_to_503(self):
        manager = ShardManager(
            shards=1, spec=WorkerSpec(cache_size=4),
            start_method="thread",
        )
        front = HTTPFrontend(manager)
        try:
            manager.close()
            status, _, body = _request(
                front, "/translate", {"question": SUPPORTED[0]}
            )
            assert status == 503
            assert body["error"]["type"] == "ServingError"
        finally:
            front.close()

    def test_close_drains_with_an_idle_keepalive_connection(self):
        """close() must not wait on a client that keeps an idle
        keep-alive connection open, yet a request in flight during
        close() still gets its answer."""
        manager = ShardManager(
            shards=1,
            spec=WorkerSpec(cache_size=0, debug_ops=True),
            start_method="thread",
        )
        front = HTTPFrontend(manager)
        idle = http.client.HTTPConnection(front.host, front.port, timeout=60)
        stall = threading.Thread(target=manager.debug_stall, args=(0, 1.0))
        result = {}

        def in_flight():
            result["status"] = _request(
                front, "/translate", {"question": SUPPORTED[0]}
            )[0]

        request = threading.Thread(target=in_flight)
        closer = threading.Thread(target=front.close)
        try:
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()
            stall.start()
            time.sleep(0.1)  # the stall now holds the shard
            request.start()
            deadline = time.monotonic() + 30.0
            while (
                manager.health()[0]["pending"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            closer.start()
            closer.join(30.0)
            assert not closer.is_alive(), "close() hung on the idle client"
            request.join(30.0)
            assert result["status"] == 200
        finally:
            stall.join(30.0)
            idle.close()
            front.close()
            manager.close()
