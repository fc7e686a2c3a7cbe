"""What each entry point loads: a process imports only what it runs.

Every check runs in a fresh interpreter, because the test process has
long since imported everything.  The child prints the watched modules
that ended up in ``sys.modules``; the parent asserts on that list.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules a translating process never calls.
NOT_FOR_TRANSLATION = (
    "networkx",
    "numpy",
    "repro.crowd",
    "repro.oassis",
    "repro.eval",
    "repro.service",
    "repro.serving",
)

#: Modules a spawned serving worker never calls.
NOT_FOR_WORKER = (
    "http.server",
    "repro.serving.frontend",
    "repro.serving.shards",
    "numpy",
    "networkx",
)


def loaded_after(code: str, watched) -> list[str]:
    """Run ``code`` in a fresh interpreter; the ``watched`` modules loaded."""
    probe = textwrap.dedent(code) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {list(watched)!r} if m in sys.modules]))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code", [
    "from repro import NL2CM",
    "import repro.core.pipeline",
])
def test_translation_loads_no_crowd_eval_or_serving(code):
    assert loaded_after(code, NOT_FOR_TRANSLATION) == []


def test_spawn_worker_loads_no_http_tier():
    assert loaded_after("import repro.serving.worker", NOT_FOR_WORKER) == []


def test_crowd_draw_loads_numpy():
    code = """
        from repro.crowd.scenarios import buffalo_travel_truth, habit_fact_set
        from repro.crowd.simulator import SimulatedCrowd
        from repro.rdf.ontology import KB

        crowd = SimulatedCrowd(buffalo_travel_truth(), size=3, seed=0)
        crowd.ask(crowd.member(0), habit_fact_set("visit", KB.Delaware_Park))
    """
    assert loaded_after(code, ("numpy",)) == ["numpy"]
