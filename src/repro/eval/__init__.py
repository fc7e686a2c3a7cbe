"""Evaluation harness: metrics and experiment runners (DESIGN.md S24).

Turns the demo paper's qualitative claims into measured numbers.
:mod:`repro.eval.accuracy` is the one quality scorer: per pack, POS and
parse accuracy against gold annotations and translation quality (IX
precision/recall, well-formedness, entity recall, gold-query agreement),
with development and held-out totals kept apart.
:mod:`repro.eval.harness` runs the rest: IX-anchor scoring of any
detector, verification accuracy and interaction counts.
"""

from repro.eval.metrics import (
    PrecisionRecall,
    query_structure_score,
    set_precision_recall,
)
from repro.eval.harness import (
    InteractionReport,
    VerificationReport,
    evaluate_interaction,
    evaluate_ix_anchors,
    evaluate_verification,
    format_table,
)
from repro.eval.accuracy import (
    AccuracyReport,
    PackAccuracy,
    ParseAccuracy,
    PosAccuracy,
    TranslationAccuracy,
    evaluate_accuracy,
    score_pack,
)

__all__ = [
    "PrecisionRecall",
    "set_precision_recall",
    "query_structure_score",
    "VerificationReport",
    "InteractionReport",
    "evaluate_ix_anchors",
    "evaluate_verification",
    "evaluate_interaction",
    "format_table",
    "AccuracyReport",
    "PackAccuracy",
    "PosAccuracy",
    "ParseAccuracy",
    "TranslationAccuracy",
    "evaluate_accuracy",
    "score_pack",
]
