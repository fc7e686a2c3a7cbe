"""Experiment runners over the annotated corpus.

Each runner returns a small report object with a ``format()`` method
that prints the table the corresponding benchmark reproduces (see
DESIGN.md Section 5 and EXPERIMENTS.md).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.pipeline import NL2CM
from repro.core.verification import Verifier
from repro.data.corpus import (
    CORPUS,
    CorpusQuestion,
    supported_questions,
    unsupported_questions,
)
from repro.errors import ReproError
from repro.eval.metrics import PrecisionRecall, set_precision_recall
from repro.nlp.graph import DepGraph
from repro.ui.admin import format_table
from repro.ui.interaction import AutoInteraction

__all__ = [
    "VerificationReport", "InteractionReport", "evaluate_ix_anchors",
    "evaluate_verification", "evaluate_interaction", "format_table",
]


# ---------------------------------------------------------------------------
# IX-anchor detection (E2 baselines, E8)
# ---------------------------------------------------------------------------

def evaluate_ix_anchors(
    anchor_fn: Callable[[DepGraph], set[str]],
    questions: Iterable[CorpusQuestion] | None = None,
) -> PrecisionRecall:
    """IX-anchor precision/recall of any detector (E2 baselines, E8)."""
    from repro.nlp.depparse import DependencyParser

    parser = DependencyParser()
    total = PrecisionRecall(0, 0, 0)
    for question in questions or supported_questions():
        graph = parser.parse(question.text)
        predicted = anchor_fn(graph)
        total = total + set_precision_recall(
            predicted, set(question.gold_ix_anchors)
        )
    return total


# ---------------------------------------------------------------------------
# E3: verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    true_accepts: int
    false_accepts: int
    true_rejects: int
    false_rejects: int
    reason_correct: int
    reject_total: int
    tips_covered: int

    @property
    def accuracy(self) -> float:
        total = (self.true_accepts + self.false_accepts
                 + self.true_rejects + self.false_rejects)
        return (self.true_accepts + self.true_rejects) / total

    def format(self) -> str:
        return format_table(
            ["metric", "value"],
            [
                ["accuracy", f"{self.accuracy:.2f}"],
                ["supported accepted",
                 f"{self.true_accepts}/{self.true_accepts + self.false_rejects}"],
                ["unsupported rejected",
                 f"{self.true_rejects}/{self.reject_total}"],
                ["rejection reason correct",
                 f"{self.reason_correct}/{self.reject_total}"],
                ["rejections with tips",
                 f"{self.tips_covered}/{self.reject_total}"],
            ],
        )


def evaluate_verification() -> VerificationReport:
    """Score the verification step on the full corpus (experiment E3)."""
    verifier = Verifier()
    ta = fa = tr = fr = reason_ok = tips = 0
    reject_total = len(unsupported_questions())
    for question in CORPUS:
        result = verifier.verify(question.text)
        if question.supported:
            if result.ok:
                ta += 1
            else:
                fr += 1
        else:
            if result.ok:
                fa += 1
            else:
                tr += 1
                if result.reason == question.reject_reason:
                    reason_ok += 1
                if result.tips:
                    tips += 1
    return VerificationReport(
        true_accepts=ta, false_accepts=fa, true_rejects=tr,
        false_rejects=fr, reason_correct=reason_ok,
        reject_total=reject_total, tips_covered=tips,
    )


# ---------------------------------------------------------------------------
# E4: interaction
# ---------------------------------------------------------------------------

class _CountingProvider(AutoInteraction):
    """Auto answers, counting requests by type."""

    def __init__(self):
        super().__init__()
        self.counts: Counter[str] = Counter()

    def ask(self, request):
        self.counts[type(request).__name__] += 1
        return super().ask(request)


@dataclass
class InteractionReport:
    counts_by_type: dict[str, int]
    questions: int
    questions_with_any: int
    disambiguations_first_pass: int
    disambiguations_second_pass: int

    def format(self) -> str:
        rows = [
            [name, count]
            for name, count in sorted(self.counts_by_type.items())
        ]
        rows.append(["questions", self.questions])
        rows.append(["questions with interaction",
                     self.questions_with_any])
        rows.append(["disambiguation dialogs, 1st pass",
                     self.disambiguations_first_pass])
        rows.append(["disambiguation dialogs, 2nd pass (after feedback)",
                     self.disambiguations_second_pass])
        return format_table(["interaction", "count"], rows)


def evaluate_interaction() -> InteractionReport:
    """Count interaction points across the corpus (experiment E4).

    Two passes measure FREyA-style feedback: disambiguation dialogs in
    the second pass should drop, because first-pass choices are
    remembered.
    """
    nl2cm = NL2CM()
    counts: Counter[str] = Counter()
    with_any = 0
    first_disambiguations = 0

    for question in supported_questions():
        provider = _CountingProvider()
        try:
            nl2cm.translate(question.text, interaction=provider)
        except ReproError:
            continue
        counts.update(provider.counts)
        first_disambiguations += provider.counts.get(
            "DisambiguationRequest", 0
        )
        if provider.counts:
            with_any += 1

    second_disambiguations = 0
    for question in supported_questions():
        provider = _CountingProvider()
        try:
            nl2cm.translate(question.text, interaction=provider)
        except ReproError:
            continue
        second_disambiguations += provider.counts.get(
            "DisambiguationRequest", 0
        )

    return InteractionReport(
        counts_by_type=dict(counts),
        questions=len(supported_questions()),
        questions_with_any=with_any,
        disambiguations_first_pass=first_disambiguations,
        disambiguations_second_pass=second_disambiguations,
    )
