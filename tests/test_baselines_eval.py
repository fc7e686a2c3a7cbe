"""Tests for the baselines (B1-B3) and the evaluation harness."""

import pytest

from repro.baselines import (
    GeneralOnlyTranslator,
    KBMismatchDetector,
    SentimentOnlyDetector,
)
from repro.baselines.ix_baselines import full_detector_anchors
from repro.data.corpus import (
    CORPUS,
    supported_questions,
    unsupported_questions,
)
from repro.errors import CompositionError, VerificationError
from repro.data.scenario import domain_pack
from repro.eval.accuracy import evaluate_accuracy
from repro.eval.harness import (
    evaluate_interaction,
    evaluate_ix_anchors,
    evaluate_verification,
    format_table,
)
from repro.eval.metrics import (
    PrecisionRecall,
    query_structure_score,
    set_precision_recall,
)
from repro.nlp import parse
from repro.oassisql import parse_oassisql


class TestCorpusIntegrity:
    def test_corpus_size(self):
        assert len(CORPUS) >= 40
        assert len(supported_questions()) >= 30
        assert len(unsupported_questions()) >= 6

    def test_paper_questions_present(self):
        from_paper = [q for q in CORPUS if q.from_paper]
        assert len(from_paper) >= 7

    def test_ids_unique(self):
        ids = [q.id for q in CORPUS]
        assert len(ids) == len(set(ids))

    def test_gold_queries_are_valid_oassisql(self):
        for q in CORPUS:
            if q.gold_query:
                parse_oassisql(q.gold_query)

    def test_every_domain_covered(self):
        domains = {q.domain for q in CORPUS}
        assert {"travel", "shopping", "health", "food"} <= domains

    def test_unsupported_have_reasons(self):
        for q in unsupported_questions():
            assert q.reject_reason


class TestMetrics:
    def test_set_precision_recall(self):
        pr = set_precision_recall({"a", "b", "x"}, {"a", "b", "c"})
        assert pr.true_positives == 2
        assert pr.false_positives == 1
        assert pr.false_negatives == 1
        assert pr.precision == pytest.approx(2 / 3)
        assert pr.recall == pytest.approx(2 / 3)

    def test_empty_sets_are_perfect(self):
        pr = set_precision_recall(set(), set())
        assert pr.precision == 1.0 and pr.recall == 1.0

    def test_f1_zero_when_nothing_right(self):
        pr = set_precision_recall({"x"}, {"y"})
        assert pr.f1 == 0.0

    def test_addition_aggregates(self):
        a = PrecisionRecall(1, 2, 3)
        b = PrecisionRecall(4, 5, 6)
        assert a + b == PrecisionRecall(5, 7, 9)

    def test_structure_score_identical_queries(self):
        q = parse_oassisql(
            "SELECT VARIABLES\nWHERE\n{$x instanceOf Place}\n"
            "SATISFYING\n{[] visit $x}\nWITH SUPPORT THRESHOLD = 0.1"
        )
        assert query_structure_score(q, q) == 1.0

    def test_structure_score_variable_renaming_invariant(self):
        a = parse_oassisql(
            "SELECT VARIABLES\nWHERE\n{$x instanceOf Place}"
        )
        b = parse_oassisql(
            "SELECT VARIABLES\nWHERE\n{$zz instanceOf Place}"
        )
        assert query_structure_score(a, b) == 1.0

    def test_structure_score_detects_difference(self):
        a = parse_oassisql(
            "SELECT VARIABLES\nWHERE\n{$x instanceOf Place}"
        )
        b = parse_oassisql(
            "SELECT VARIABLES\nWHERE\n{$x instanceOf Hotel}"
        )
        assert query_structure_score(a, b) < 1.0

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])


class TestGeneralOnlyBaseline:
    def test_translates_general_parts(self):
        baseline = GeneralOnlyTranslator()
        result = baseline.translate(
            "Which hotel in Vegas has the best thrill ride?"
        )
        assert result.query.satisfying == ()
        assert len(result.query.where) >= 2

    def test_habit_only_question_fails(self):
        baseline = GeneralOnlyTranslator()
        with pytest.raises(CompositionError):
            baseline.translate("Do you like sushi?")

    def test_verification_still_applies(self):
        baseline = GeneralOnlyTranslator()
        with pytest.raises(VerificationError):
            baseline.translate("How should I store coffee?")


class TestIXBaselines:
    def test_sentiment_only_finds_opinions(self):
        detector = SentimentOnlyDetector()
        graph = parse("What are the most interesting places?")
        assert detector.detect_anchors(graph) == {"interesting"}

    def test_sentiment_only_misses_habits(self):
        detector = SentimentOnlyDetector()
        graph = parse("the places we should visit in the fall")
        assert "visit" not in detector.detect_anchors(graph)

    def test_kb_mismatch_flags_unknown_words(self):
        detector = KBMismatchDetector()
        graph = parse("Where can we find a zorblatt?")
        assert "zorblatt" in detector.detect_anchors(graph)

    def test_kb_mismatch_misses_kb_covered_individual_words(self):
        # "fall" is in the KB (the season entity), so the naive
        # detector wrongly treats it as general.
        detector = KBMismatchDetector()
        graph = parse("the places we should visit in the fall")
        assert "fall" not in detector.detect_anchors(graph)


def _demo_accuracy():
    domains = sorted({q.domain for q in supported_questions()})
    return evaluate_accuracy([domain_pack(d) for d in domains])


class TestHarness:
    def test_translation_quality_headline(self):
        total = _demo_accuracy().totals().translation
        assert total.questions == len(supported_questions())
        assert total.ix.f1 >= 0.95
        assert total.wellformed == total.questions
        assert total.exact_rate == 1.0
        assert total.failures == 0

    def test_nl2cm_beats_baselines_on_ix(self):
        ours = evaluate_ix_anchors(full_detector_anchors)
        sentiment = evaluate_ix_anchors(
            SentimentOnlyDetector().detect_anchors
        )
        mismatch = evaluate_ix_anchors(
            KBMismatchDetector().detect_anchors
        )
        assert ours.f1 > sentiment.f1
        assert ours.f1 > mismatch.f1
        # The characteristic failure modes:
        assert sentiment.recall < 0.6      # misses habits
        assert mismatch.precision < 0.6    # floods false positives

    def test_verification_report(self):
        report = evaluate_verification()
        assert report.accuracy == 1.0
        assert report.reason_correct == report.reject_total
        assert report.tips_covered == report.reject_total

    def test_interaction_report(self):
        report = evaluate_interaction()
        assert report.questions_with_any >= 1
        assert (report.disambiguations_second_pass
                <= report.disambiguations_first_pass)
        assert "ThresholdRequest" in report.counts_by_type

    def test_reports_format(self):
        for report in (_demo_accuracy(), evaluate_verification()):
            text = report.format()
            assert "\n" in text
