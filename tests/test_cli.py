"""Tests for the ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main


class TestMainFunction:
    def test_translate_question(self, capsys):
        status = main(["Where do you visit in Buffalo?"])
        out = capsys.readouterr().out
        assert status == 0
        assert "SELECT VARIABLES" in out
        assert "[] visit $x" in out

    def test_admin_trace(self, capsys):
        status = main(["--admin", "Where do you visit in Buffalo?"])
        out = capsys.readouterr().out
        assert status == 0
        assert "nl-parsing" in out
        assert "final-query" in out

    def test_unsupported_question_exit_code(self, capsys):
        status = main(["How should I store coffee?"])
        err = capsys.readouterr().err
        assert status == 2
        assert "tip:" in err

    def test_execute_flag(self, capsys):
        status = main([
            "--execute", "--crowd-size", "40",
            "What are the most interesting places near Forest Hotel, "
            "Buffalo, we should visit in the fall?",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "# crowd tasks:" in out
        assert "Delaware Park" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["hello"])
        assert args.crowd_size == 120
        assert not args.execute

    def test_explain_question_file(self, tmp_path, capsys):
        batch = tmp_path / "questions.txt"
        batch.write_text(
            "Where do you visit in Buffalo?\n"
            "Where do you visit in Buffalo?\n",
            "utf-8",
        )
        status = main(["--explain", str(batch)])
        out = capsys.readouterr().out
        assert status == 0
        assert "== query plan ==" in out
        assert "join order" in out
        # The repeated question reuses the first question's plan.
        assert "plan cache: miss" in out
        assert "plan cache: hit" in out

    def test_explain_query_file(self, tmp_path, capsys):
        query = tmp_path / "query.oql"
        query.write_text(
            "SELECT VARIABLES\n"
            "WHERE\n"
            "{$x instanceOf Place}\n"
            "SATISFYING\n"
            "{[] visit $x}\n"
            "WITH SUPPORT THRESHOLD = 0.1\n",
            "utf-8",
        )
        status = main(["--explain", str(query)])
        out = capsys.readouterr().out
        assert status == 0
        assert "plan cache: miss" in out
        assert "instanceOf" in out

    def test_explain_missing_file(self, capsys):
        status = main(["--explain", "/nonexistent/nope.txt"])
        assert status == 2
        assert "cannot read" in capsys.readouterr().err

    def test_execute_records_plan_traffic_in_metrics(
        self, tmp_path, capsys
    ):
        # The --execute engine must evaluate WHERE clauses through the
        # translator's planner, whose counters the service exports.
        from repro.obs import parse_prometheus_text

        metrics_file = tmp_path / "m.prom"
        status = main([
            "--execute", "--crowd-size", "40",
            "--metrics-out", str(metrics_file),
            "Where do you visit in Buffalo?",
        ])
        capsys.readouterr()
        assert status == 0
        metrics = parse_prometheus_text(metrics_file.read_text("utf-8"))
        samples = metrics["planner_plan_cache_total"]["samples"]
        key = ("planner_plan_cache_total", (("result", "miss"),))
        assert samples.get(key, 0) >= 1


class TestServeMode:
    def test_parser_serve_defaults(self):
        args = build_parser().parse_args(["--serve"])
        assert args.serve
        assert args.port == 8080
        assert args.host == "127.0.0.1"
        assert args.shards == 2
        assert args.max_pending == 64
        assert args.start_method == "spawn"
        assert args.request_timeout == 30.0

    def test_run_serve_graceful_signal_shutdown(
        self, monkeypatch, tmp_path, capsys
    ):
        """The --serve loop end to end, in process: serve a request,
        deliver the (captured) SIGTERM handler, and require the drain
        order — final panel printed, metrics flushed, exit 0."""
        import json
        import signal
        import threading
        import urllib.request

        handlers = {}
        monkeypatch.setattr(
            signal, "signal",
            lambda signum, handler: handlers.setdefault(signum, handler),
        )
        metrics_file = tmp_path / "final.prom"
        args = build_parser().parse_args([
            "--serve", "--port", "0", "--shards", "1",
            "--start-method", "thread",
            "--metrics-out", str(metrics_file),
        ])
        from repro.__main__ import run_serve

        status = {}

        def serve():
            status["code"] = run_serve(args)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            # Wait for the announce line to learn the bound port.
            address = None
            for _ in range(600):
                err = capsys.readouterr().err
                if " on http://" in err:
                    address = err.split(" on ")[1].split(" ")[0]
                    break
                thread.join(0.1)
            assert address, "serve loop never announced its address"
            body = json.dumps(
                {"question": "Where do you visit in Buffalo?"}
            ).encode("utf-8")
            request = urllib.request.Request(
                address + "/translate", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                assert json.loads(response.read())["ok"]
        finally:
            handlers[signal.SIGTERM](signal.SIGTERM, None)
            thread.join(120.0)
        assert not thread.is_alive()
        assert status["code"] == 0
        err = capsys.readouterr().err
        assert "== sharded serving ==" in err
        assert "identity: holds" in err
        exposition = metrics_file.read_text("utf-8")
        assert "serving_http_requests_total" in exposition
        # The flush is the full /metrics view: worker series included.
        assert 'nl2cm_requests_total{shard="0"} 1' in exposition


class TestSubprocess:
    def test_module_entry_point(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro",
             "Is chocolate milk good for kids?"],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0
        assert 'Chocolate_Milk hasLabel "good for kids"' in (
            completed.stdout
        )


class TestScore:
    def test_score_single_pack(self, capsys):
        from repro.data.scenario import builtin_packs_dir

        pack = builtin_packs_dir() / "patients"
        status = main(["--score", "--pack", str(pack)])
        out = capsys.readouterr().out
        assert status == 0
        assert "POS tagging accuracy" in out
        assert "Dependency attachment" in out
        assert "Translation quality" in out
        assert "IX-F1" in out
        assert "patients" in out
        # An authored pack is held out; no blended ALL row.
        assert "held-out" in out
        assert "development" not in out
        assert "ALL" not in out

    def test_score_missing_pack_exits_two(self, tmp_path, capsys):
        status = main(["--score", "--pack", str(tmp_path / "nope")])
        assert status == 2
        assert "cannot load scenario pack" in capsys.readouterr().err

    def test_score_writes_json_artifact(self, tmp_path, capsys):
        import json as json_module

        from repro.data.scenario import builtin_packs_dir

        out_file = tmp_path / "accuracy.json"
        status = main([
            "--score", "--pack",
            str(builtin_packs_dir() / "patients"),
            "--json", str(out_file),
        ])
        assert status == 0
        data = json_module.loads(out_file.read_text())
        assert data["experiment"] == "accuracy"
        assert "taggers" not in data
        assert set(data["packs"]) == {"patients"}
        assert "overall" not in data and "confusion" in data
        assert data["development"] is None
        assert data["held-out"]["translation"]["questions"] > 0

    def test_score_unwritable_json_exits_two(self, tmp_path, capsys):
        from repro.data.scenario import builtin_packs_dir

        status = main([
            "--score", "--pack",
            str(builtin_packs_dir() / "patients"),
            "--json", str(tmp_path / "missing-dir" / "out.json"),
        ])
        assert status == 2
        assert "cannot write" in capsys.readouterr().err
