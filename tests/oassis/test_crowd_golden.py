"""Golden crowd stream: the question -> crowd-answer path stays fixed.

Every supported demo question is translated and evaluated over the
merged ground truth of the three demo scenarios, for crowd seeds 0-2
(one engine per seed, so the answer memo carries across questions as
it does in a long-lived engine).  The digest covers each task's member,
fact-set key, verbalized question and exact answer, plus each
question's accepted bindings and task count.  Task records and
bindings are sorted, so the digest pins *what* the crowd is asked and
answers, not the order in which WHERE bindings stream.

A second test pins that order too: two interpreters with different
``PYTHONHASHSEED`` values must produce the same task stream and the
same binding order.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro import NL2CM
from repro.crowd.model import GroundTruth
from repro.crowd.scenarios import (
    buffalo_travel_truth,
    dietician_truth,
    vegas_rides_truth,
)
from repro.crowd.simulator import SimulatedCrowd
from repro.data.corpus import supported_questions
from repro.errors import ReproError
from repro.oassis.engine import OassisEngine

#: sha256 of the sorted stream records below, computed before the
#: per-fact-set engine work was hoisted out of the per-task path.
GOLDEN_DIGEST = (
    "32fdf81c3189a4583f17cf6a7b65601019b48c6decf56513e6c5564210c4bfe3"
)

SRC = Path(__file__).resolve().parents[2] / "src"


def merged_truth() -> GroundTruth:
    truth = GroundTruth(default=0.02)
    for part in (
        buffalo_travel_truth(), vegas_rides_truth(), dietician_truth()
    ):
        truth.supports.update(part.supports)
    return truth


def binding_text(binding) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(binding.items()))


def stream_records(seeds):
    """Per (seed, question): sorted tasks, accepted bindings, task count."""
    nl2cm = NL2CM()
    truth = merged_truth()
    questions = supported_questions()
    records = []
    for seed in seeds:
        crowd = SimulatedCrowd(truth, size=100, noise=0.1, seed=seed)
        engine = OassisEngine(nl2cm.ontology, crowd)
        for question in questions:
            query = nl2cm.translate(question.text).query
            try:
                result = engine.evaluate(query)
            except ReproError as err:
                records.append((seed, question.id, type(err).__name__))
                continue
            tasks = sorted(
                (t.member_id, t.fact_set.key(), t.question, repr(t.answer))
                for t in result.tasks
            )
            accepted = sorted(
                binding_text(o.binding) for o in result.accepted
            )
            records.append(
                (seed, question.id, tasks, accepted, result.tasks_used)
            )
    return records


def test_golden_crowd_stream_digest():
    records = stream_records(seeds=(0, 1, 2))
    assert len({r[1] for r in records}) == 49
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode("utf-8")
    ).hexdigest()
    assert digest == GOLDEN_DIGEST


#: Questions with several WHERE bindings each, so binding order shows.
ORDER_QUESTIONS = ("travel-05", "travel-09", "shopping-01", "food-02")

#: Prints the unsorted task stream and binding order of some questions.
ORDER_SCRIPT = """
import json
from repro import NL2CM
from repro.crowd.simulator import SimulatedCrowd
from repro.oassis.engine import OassisEngine
from tests.oassis.test_crowd_golden import binding_text, merged_truth
nl2cm = NL2CM()
engine = OassisEngine(
    nl2cm.ontology, SimulatedCrowd(merged_truth(), size=100, seed=3)
)
out = []
for text in json.loads(input()):
    result = engine.evaluate(nl2cm.translate(text).query)
    out.append([
        [[t.member_id, t.fact_set.key(), t.answer] for t in result.tasks],
        [binding_text(o.binding) for o in result.outcomes],
    ])
print(json.dumps(out))
"""


def run_with_hash_seed(hash_seed: str, texts) -> list:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(SRC.parent)] + (
            [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
        )
    )
    done = subprocess.run(
        [sys.executable, "-c", ORDER_SCRIPT],
        input=json.dumps(texts), env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_crowd_stream_independent_of_hash_seed():
    texts = [
        q.text for q in supported_questions() if q.id in ORDER_QUESTIONS
    ]
    assert len(texts) == len(ORDER_QUESTIONS)
    first = run_with_hash_seed("1", texts)
    second = run_with_hash_seed("7", texts)
    assert all(tasks for tasks, _ in first)
    assert first == second
