"""Question verification (paper Section 3).

Before parsing, NL2CM "checks for certain types of questions/requests
that are not supported by the system" and, when it detects one, shows a
warning "along with a link to an explanation and tips how to rephrase
the question".  The paper's examples of unsupported forms are
descriptive questions: "How to...?", "Why...?", "For what purpose...?".

The verifier is rule-based and conservative: it only rejects forms whose
answer semantics OASSIS-QL cannot express, and every rejection carries
actionable rephrasing tips (the demo's stage (iii) shows these for
"How should I store coffee?" -> "At what container should I store
coffee?").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nlp.tokenizer import Token, split_sentences, tokenize

__all__ = ["VerificationResult", "Verifier"]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of the verification step.

    ``ok`` is True when the question may proceed to translation.
    ``reason`` is a short machine-readable code (empty when ok), and
    ``tips`` the user-facing rephrasing suggestions.  ``tokens`` are the
    request's tokens (empty when it was rejected before tokenizing), so
    the parser need not tokenize the same text again.
    """

    ok: bool
    reason: str = ""
    message: str = ""
    tips: tuple[str, ...] = ()
    tokens: tuple[Token, ...] = field(
        default=(), repr=False, compare=False
    )


# Rephrasing tips per rejection reason.
_TIPS: dict[str, tuple[str, ...]] = {
    "descriptive-how": (
        'Descriptive "How ...?" questions are not supported: their '
        "answers are free-form explanations, not data patterns.",
        'Rephrase around a concrete entity or category: instead of '
        '"How should I store coffee?" ask "At what container should I '
        'store coffee?".',
    ),
    "descriptive-why": (
        '"Why ...?" questions ask for causes, which cannot be mined as '
        "data patterns.",
        "Ask about the habits or opinions themselves: instead of "
        '"Why do people like jogging?" ask "Where do people like to '
        'jog?".',
    ),
    "descriptive-purpose": (
        '"For what purpose ...?" questions are descriptive and not '
        "supported.",
        "Ask about a concrete property, habit or opinion instead.",
    ),
    "empty": (
        "Please enter a question or request.",
    ),
    "too-short": (
        "The request is too short to translate; please write a full "
        "question.",
    ),
    "multiple-sentences": (
        "Please ask one question at a time — the translator handles a "
        "single sentence.",
    ),
    "no-content": (
        "The request contains no recognizable words; please rephrase "
        "it in plain English.",
    ),
    "too-long": (
        "The request is very long; please shorten it to a single, "
        "focused question.",
    ),
}

# Opening word sequences of descriptive questions.
_DESCRIPTIVE_OPENERS: tuple[tuple[tuple[str, ...], str], ...] = (
    (("how",), "descriptive-how"),
    (("why",), "descriptive-why"),
    (("for", "what", "purpose"), "descriptive-purpose"),
    (("what", "is", "the", "meaning"), "descriptive-purpose"),
    (("explain",), "descriptive-purpose"),
    (("describe",), "descriptive-purpose"),
)

# "How many/much" are aggregate questions, also unsupported by
# OASSIS-QL, but they get the same descriptive-how tips.
_MAX_TOKENS = 60


class Verifier:
    """The basic verification step in front of the NL parser."""

    def verify(self, text: str) -> VerificationResult:
        """Check whether ``text`` is a supported request."""
        if not text or not text.strip():
            return self._reject("empty", "The request is empty.")

        tokens = tokenize(text)
        words = [t.lower for t in tokens if t.is_word]
        if not words:
            return self._reject(
                "no-content", "The request contains no words."
            )
        if len(words) < 2:
            return self._reject(
                "too-short", "The request is a single word."
            )

        sentences = split_sentences(text)
        if len(sentences) > 1:
            return self._reject(
                "multiple-sentences",
                f"The request contains {len(sentences)} sentences.",
            )
        if len(tokens) > _MAX_TOKENS:
            return self._reject(
                "too-long",
                f"The request has {len(tokens)} tokens "
                f"(limit {_MAX_TOKENS}).",
            )

        for opener, reason in _DESCRIPTIVE_OPENERS:
            if tuple(words[: len(opener)]) == opener:
                quoted = " ".join(opener).capitalize()
                return self._reject(
                    reason,
                    f'Questions starting with "{quoted} ..." are '
                    "descriptive and not supported.",
                )

        return VerificationResult(ok=True, tokens=tuple(tokens))

    @staticmethod
    def _reject(reason: str, message: str) -> VerificationResult:
        return VerificationResult(
            ok=False, reason=reason, message=message,
            tips=_TIPS.get(reason, ()),
        )
