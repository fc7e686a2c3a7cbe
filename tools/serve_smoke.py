"""Smoke-test a live ``--serve`` tier end to end, through a bounded drain.

Usage, from the repository root::

    PYTHONPATH=src python tools/serve_smoke.py [OUTDIR]

Starts ``python -m repro --serve --port 0 --shards 2 --metrics-out
OUTDIR/final.prom`` and, over one keep-alive connection:

* POSTs one question and requires an OASSIS-QL answer;
* requires ``/stats`` to report the serving counter identity;
* parses ``/metrics`` with the strict ``parse_prometheus_text`` and
  requires the ``serving_http_requests_total`` series and
  shard-labelled ``nl2cm_stage_seconds`` samples.

It then sends SIGTERM with that connection still open and requires
exit 0 within 30 s, the final stats panel on stderr (kept as
``OUTDIR/serve.log``) and a flush in ``final.prom`` carrying both the
``serving_*`` and the shard-labelled worker series.
``OUTDIR`` defaults to the current directory.  Exits 0 on success and
1 with a message otherwise.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.obs import parse_prometheus_text

QUESTION = "Where do you visit in Buffalo?"
DRAIN_SECONDS = 30.0
STARTUP_SECONDS = 120.0


def _request_json(conn: http.client.HTTPConnection, method: str, path: str,
              body: dict | None = None) -> tuple[int, dict]:
    conn.request(
        method, path, json.dumps(body) if body is not None else None,
        {"Content-Type": "application/json"} if body is not None else {},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _shards(metrics: dict, family: str) -> set[str]:
    samples = metrics.get(family, {}).get("samples", {})
    return {dict(labels)["shard"] for _, labels in samples
            if "shard" in dict(labels)}


def _drive(server: subprocess.Popen, port: int, out: Path) -> str | None:
    """Run every check; None when all passed, else the first failure."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        status, reply = _request_json(
            conn, "POST", "/translate", {"question": QUESTION}
        )
        if status != 200 or not reply.get("ok") or not reply.get(
            "query", ""
        ).startswith("SELECT VARIABLES"):
            return f"POST /translate answered {status}: {reply}"
        status, stats = _request_json(conn, "GET", "/stats")
        if not stats.get("identity_holds") or (
            stats.get("requests") != stats.get("accounted")
        ):
            return f"GET /stats broke the counter identity: {stats}"
        conn.request("GET", "/metrics")
        metrics = parse_prometheus_text(
            conn.getresponse().read().decode("utf-8")
        )
        if "serving_http_requests_total" not in metrics:
            return "no serving_http_requests_total in /metrics"
        shards = _shards(metrics, "nl2cm_stage_seconds")
        if not shards:
            return "no shard-labelled nl2cm_stage_seconds samples"
        # SIGTERM with the keep-alive connection still open: the drain
        # must not wait for this client to hang up.
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=DRAIN_SECONDS)
        except subprocess.TimeoutExpired:
            return f"no exit within {DRAIN_SECONDS:.0f}s of SIGTERM"
    finally:
        conn.close()
    log = (out / "serve.log").read_text("utf-8")
    if server.returncode != 0:
        return f"exit {server.returncode} after SIGTERM:\n{log}"
    if "== sharded serving ==" not in log or "identity: holds" not in log:
        return f"no final stats panel with the identity on stderr:\n{log}"
    flushed = parse_prometheus_text((out / "final.prom").read_text("utf-8"))
    if "serving_http_requests_total" not in flushed or not _shards(
        flushed, "nl2cm_requests_total"
    ):
        return "final.prom lacks the serving or shard-labelled series"
    print(f"ok: shards {sorted(shards)} in /metrics and final.prom, "
          f"exit 0 after SIGTERM with a keep-alive connection open")
    return None


def _await_port(server: subprocess.Popen, log: Path) -> int | None:
    """The bound port, from the announce line the server logs."""
    deadline = time.monotonic() + STARTUP_SECONDS
    while time.monotonic() < deadline and server.poll() is None:
        match = re.search(r"http://[\d.]+:(\d+)", log.read_text("utf-8"))
        if match:
            return int(match.group(1))
        time.sleep(0.2)
    return None


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "serve.log", "w", encoding="utf-8") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "--serve", "--port", "0",
             "--shards", "2", "--metrics-out", str(out / "final.prom")],
            stderr=log,
        )
    try:
        port = _await_port(server, out / "serve.log")
        failure = (
            "the server never announced its address" if port is None
            else _drive(server, port, out)
        )
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    if failure:
        print(f"serve smoke failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
