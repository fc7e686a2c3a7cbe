"""E15: per-domain accuracy of the rules tagger and the NLP substrate.

The paper evaluates translation quality on questions from a handful of
domains (Section 4.1); this experiment tracks the *inputs* to that
claim per scenario pack: POS accuracy (with a known/unknown split),
dependency attachment (UAS/LAS) and gold-query agreement.

The floors are seeded a few points under the measured numbers
(EXPERIMENTS.md records the reference run); a regression in the
tagger, the parser or any pack's corpus trips them.
"""

from pathlib import Path

from repro.eval.accuracy import evaluate_accuracy

RESULTS_DIR = Path(__file__).parent / "results"

#: Demo-corpus domain slices: the rules tagger was hand-tuned on these,
#: so their gold queries must translate exactly.
DOMAIN_SLICES = ("travel", "shopping", "food", "health")

#: Authored directory packs carry deliberate out-of-vocabulary
#: questions, so their rules-tagger floors sit lower.
PACK_EXACT_FLOORS = {"patients": 0.8, "movies": 0.6, "commerce": 0.5}


def test_bench_accuracy(benchmark, report_writer):
    report = benchmark(evaluate_accuracy)
    total = report.totals()

    # Whole-corpus floors (measured 2026-08-07: POS .939, LAS .934).
    assert total.pos.accuracy >= 0.92
    assert total.pos.known_accuracy >= 0.95
    assert total.parse.uas >= 0.92
    assert total.parse.las >= 0.90

    # Nothing silently drops out of the evaluation.
    assert total.pos.skipped == 0
    assert total.parse.skipped == 0
    assert total.translation.failures == 0

    # Per-pack floors.
    for pack in report.packs:
        assert pack.pos.accuracy >= 0.85, pack.name
        assert pack.parse.las >= 0.70, pack.name
        exact = pack.translation.exact_rate
        if pack.name in DOMAIN_SLICES:
            assert exact == 1.0, pack.name
        else:
            assert exact >= PACK_EXACT_FLOORS[pack.name], pack.name

    report_writer("E15-accuracy", report.format())
    report.write_json(RESULTS_DIR / "E15-accuracy.json")


def test_bench_accuracy_covers_every_builtin_pack():
    report = evaluate_accuracy()
    names = [pack.name for pack in report.packs]
    assert len(names) >= 5
    assert set(DOMAIN_SLICES) <= set(names)
    assert set(PACK_EXACT_FLOORS) <= set(names)
    for pack in report.packs:
        assert pack.translation.gold_queries > 0, pack.name
