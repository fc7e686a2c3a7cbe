"""E2: translation quality over the corpus, vs. the IX baselines.

The paper claims "the quality of our developed translation is high for
real user questions even without interacting with the user"
(Section 4.1).  This bench measures it with the one quality scorer
(:func:`repro.eval.accuracy.score_translation`), one pack per domain of
the demo corpus: IX-detection P/R/F1, query well-formedness, entity
recall and exact-match rate on the gold-query subset.  The demo corpus
is the development set (the lexicon, patterns and vocabularies were
built against it); the held-out packs are scored by E15.  The second
bench compares NL2CM's IX detector against the two weaker detectors the
paper discusses (sentiment-only, KB-mismatch).
"""

from repro.baselines import KBMismatchDetector, SentimentOnlyDetector
from repro.baselines.ix_baselines import full_detector_anchors
from repro.data.corpus import supported_questions
from repro.data.scenario import domain_pack
from repro.eval.accuracy import evaluate_accuracy
from repro.eval.harness import evaluate_ix_anchors, format_table


def test_bench_translation_quality(benchmark, report_writer):
    domains = sorted({q.domain for q in supported_questions()})
    packs = [domain_pack(domain) for domain in domains]
    report = benchmark(evaluate_accuracy, packs)
    total = report.totals().translation

    # Every supported demo question is scored, "general" included.
    assert total.questions == len(supported_questions())
    # The headline claims: high quality without interaction.
    assert total.ix.f1 >= 0.95
    assert total.wellformed == total.questions
    assert total.exact_rate == 1.0
    assert total.entity_recall >= 0.9
    report_writer("E2-translation-quality", report.format_translation())


def test_bench_ix_detector_vs_baselines(report_writer):
    ours = evaluate_ix_anchors(full_detector_anchors)
    sentiment = evaluate_ix_anchors(SentimentOnlyDetector().detect_anchors)
    mismatch = evaluate_ix_anchors(KBMismatchDetector().detect_anchors)

    rows = [
        ["NL2CM (3 individuality types)", f"{ours.precision:.2f}",
         f"{ours.recall:.2f}", f"{ours.f1:.2f}"],
        ["sentiment-only (related work)", f"{sentiment.precision:.2f}",
         f"{sentiment.recall:.2f}", f"{sentiment.f1:.2f}"],
        ["KB-mismatch (naive)", f"{mismatch.precision:.2f}",
         f"{mismatch.recall:.2f}", f"{mismatch.f1:.2f}"],
    ]
    table = format_table(["IX detector", "P", "R", "F1"], rows)
    report_writer("E2-ix-baselines", table)

    # Shape claims from the paper's argument:
    assert ours.f1 > sentiment.f1 > 0          # subset of IXs only
    assert sentiment.precision >= 0.9          # what it finds is right
    assert sentiment.recall < 0.6              # but it misses habits
    assert mismatch.precision < 0.6            # KB incompleteness noise
    assert ours.f1 > mismatch.f1
