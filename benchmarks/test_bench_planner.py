"""E13: cost-based query planner throughput and plan-cache gates.

Three measurements, two gates:

* **Repeated-shape BGP workload** — S shapes x V constant variations x
  R repeats against a synthetic store.  The planner compiles each shape
  once and serves every variation/repeat from the plan cache.  Gate:
  plan-cache hit rate >= 90%.
* **Cold-plan overhead** — the extra latency of a plan-cache miss over
  a hit (ordering + shape hashing; step compilation runs on both
  paths), compared to the mean E6 translation latency measured in this
  same run.  Gate: overhead <= 5% of the translation mean.
* **E9 repeated-question mix** — the WHERE clauses of every translated
  corpus query, repeated round-robin as in E9's serving trace.
  Reported (throughput and hit rate), not gated.

The planner's solutions are checked against a naive reference join in
tier-1 (``tests/rdf/test_planner_properties.py`` and
``tests/rdf/test_corpus_identity.py``), so this bench only times it.

Results go to ``benchmarks/results/E13-planner.txt`` and (for the CI
artifact) ``E13-planner.json``.
"""

import json
import time
from pathlib import Path

from repro import NL2CM
from repro.data.corpus import supported_questions
from repro.eval.harness import format_table
from repro.oassis.engine import OassisEngine
from repro.rdf.planner import QueryPlanner
from repro.rdf.planner import TriplePattern
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Literal, Variable

RESULTS_DIR = Path(__file__).parent / "results"

N_ENTITIES = 400
N_CLASSES = 8
VARIATIONS = 24
REPEATS = 3
E9_REPEATS = 4

HIT_RATE_FLOOR = 0.90
COLD_PLAN_CEILING = 0.05


def kb(name: str) -> IRI:
    return IRI(f"http://bench.example/{name}")


TYPE, NEAR, LABEL = kb("type"), kb("near"), kb("label")


def synthetic_store() -> TripleStore:
    """A deterministic store: typed entities in a near-neighbor ring."""
    store = TripleStore()
    for i in range(N_ENTITIES):
        e = kb(f"e{i}")
        store.add(e, TYPE, kb(f"C{i % N_CLASSES}"))
        store.add(e, NEAR, kb(f"e{(i * 7 + 1) % N_ENTITIES}"))
        store.add(e, NEAR, kb(f"e{(i * 13 + 5) % N_ENTITIES}"))
        store.add(e, LABEL, Literal(f"entity {i}"))
    return store


def shape_workload() -> list[list[TriplePattern]]:
    """S shapes x VARIATIONS constants, flattened in round-robin order."""
    x, y, t, l = (Variable(v) for v in "xytl")
    variants: list[list[list[TriplePattern]]] = [[] for _ in range(4)]
    for v in range(VARIATIONS):
        cls = kb(f"C{v % N_CLASSES}")
        ent = kb(f"e{(v * 31) % N_ENTITIES}")
        variants[0].append([
            TriplePattern(x, TYPE, cls),
            TriplePattern(x, NEAR, y),
            TriplePattern(y, LABEL, l),
        ])
        variants[1].append([
            TriplePattern(x, NEAR, y),
            TriplePattern(y, TYPE, cls),
        ])
        variants[2].append([
            TriplePattern(ent, NEAR, y),
            TriplePattern(y, LABEL, l),
        ])
        variants[3].append([
            TriplePattern(x, TYPE, cls),
            TriplePattern(x, NEAR, y),
            TriplePattern(y, TYPE, t),
        ])
    return [bgp for group in zip(*variants) for bgp in group]


def drain(solutions) -> int:
    return sum(1 for _ in solutions)


def test_bench_planner(ontology, report_writer):
    store = synthetic_store()
    workload = shape_workload() * REPEATS

    # -- repeated-shape workload --------------------------------------------------
    planner = QueryPlanner()
    start = time.perf_counter()
    for bgp in workload:
        drain(planner.solutions(store, bgp))
    cost_s = time.perf_counter() - start
    snap = planner.snapshot()
    hit_rate = snap.hit_rate

    # -- cold-plan overhead vs E6 translation latency ---------------------------
    sample_shapes = shape_workload()[:40]
    cold = QueryPlanner(cache_size=1)  # every plan() call misses
    start = time.perf_counter()
    for bgp in sample_shapes:
        cold.plan(store, bgp)
    cold_each = (time.perf_counter() - start) / len(sample_shapes)
    warm = QueryPlanner()
    for bgp in sample_shapes:
        warm.plan(store, bgp)
    start = time.perf_counter()
    for bgp in sample_shapes:
        warm.plan(store, bgp)
    warm_each = (time.perf_counter() - start) / len(sample_shapes)
    cold_overhead_s = max(0.0, cold_each - warm_each)

    texts = [q.text for q in supported_questions()]
    translator = NL2CM(ontology=ontology)
    start = time.perf_counter()
    queries = [translator.translate(t).query for t in texts]
    translate_mean_s = (time.perf_counter() - start) / len(texts)
    cold_ratio = cold_overhead_s / translate_mean_s

    # -- E9 repeated-question mix over the real ontology ------------------------
    corpus_bgps = [
        [OassisEngine._to_pattern(t) for t in q.where]
        for q in queries if q.where
    ]
    mix = corpus_bgps * E9_REPEATS
    mix_planner = QueryPlanner()
    start = time.perf_counter()
    for bgp in mix:
        drain(mix_planner.solutions(ontology.store, bgp))
    e9_cost_s = time.perf_counter() - start
    e9_hit_rate = mix_planner.snapshot().hit_rate

    rows = [
        ["repeated-shape", len(workload), f"{cost_s:.3f}",
         f"{len(workload) / cost_s:.0f}"],
        ["E9-mix", len(mix), f"{e9_cost_s:.3f}",
         f"{len(mix) / e9_cost_s:.0f}"],
    ]
    table = format_table(["workload", "evaluations", "seconds", "eval/s"],
                         rows)
    table += (
        f"\n\nplan cache: {snap.hits} hits / {snap.misses} misses / "
        f"{snap.invalidations} invalidated  "
        f"(hit rate {hit_rate:.1%}, floor {HIT_RATE_FLOOR:.0%})"
        f"\nE9-mix plan-cache hit rate: {e9_hit_rate:.1%}"
        f"\ncold-plan overhead: {cold_overhead_s * 1e6:.1f} us/query = "
        f"{cold_ratio:.2%} of the {translate_mean_s * 1000:.2f} ms mean "
        f"translation (ceiling {COLD_PLAN_CEILING:.0%})"
    )
    report_writer("E13-planner", table)
    (RESULTS_DIR / "E13-planner.json").write_text(json.dumps({
        "repeated_shape": {
            "evaluations": len(workload),
            "cost_seconds": round(cost_s, 4),
            "hit_rate": round(hit_rate, 4),
        },
        "cold_plan": {
            "overhead_us": round(cold_overhead_s * 1e6, 2),
            "translate_mean_ms": round(translate_mean_s * 1000, 3),
            "ratio": round(cold_ratio, 4),
        },
        "e9_mix": {
            "evaluations": len(mix),
            "cost_seconds": round(e9_cost_s, 4),
            "hit_rate": round(e9_hit_rate, 4),
        },
    }, indent=2) + "\n", "utf-8")

    assert hit_rate >= HIT_RATE_FLOOR, (
        f"plan-cache hit rate {hit_rate:.1%} below "
        f"{HIT_RATE_FLOOR:.0%}"
    )
    assert cold_ratio <= COLD_PLAN_CEILING, (
        f"cold-plan overhead {cold_ratio:.2%} of mean translation "
        f"latency exceeds {COLD_PLAN_CEILING:.0%}"
    )
