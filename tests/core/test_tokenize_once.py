"""Tokenize once per translation, with the verifier's verdicts unchanged.

The verifier tokenizes the request to judge it; an accepted request's
tokens ride on the :class:`VerificationResult` into the parser, so each
accepted ``translate`` makes exactly one ``Tokenizer.tokenize`` call.
"""

import pytest

from repro import NL2CM
from repro.core.verification import VerificationResult, Verifier
from repro.data.corpus import supported_questions
from repro.nlp.tokenizer import Tokenizer, tokenize


@pytest.fixture(scope="module")
def nl2cm():
    return NL2CM()


@pytest.fixture
def tokenize_calls(monkeypatch):
    calls = []
    original = Tokenizer.tokenize

    def counting(self, text):
        calls.append(text)
        return original(self, text)

    monkeypatch.setattr(Tokenizer, "tokenize", counting)
    return calls


def test_one_tokenize_call_per_accepted_translation(nl2cm, tokenize_calls):
    questions = supported_questions()
    for question in questions:
        before = len(tokenize_calls)
        nl2cm.translate(question.text)
        assert tokenize_calls[before:] == [question.text], question.id
    assert len(tokenize_calls) == len(questions)


def test_accepted_result_carries_the_tokens():
    text = "Where do you visit in Buffalo?"
    result = Verifier().verify(text)
    assert result.ok
    assert list(result.tokens) == tokenize(text)
    # The tokens are bookkeeping, not part of the verdict.
    assert result == VerificationResult(ok=True)
    assert repr(result) == "VerificationResult(ok=True, reason='', " \
        "message='', tips=())"


@pytest.mark.parametrize("text, reason, message, tips", [
    ("", "empty", "The request is empty.",
     ("Please enter a question or request.",)),
    ("hello", "too-short", "The request is a single word.",
     ("The request is too short to translate; please write a full "
      "question.",)),
    ("Hi. How are you?", "multiple-sentences",
     "The request contains 2 sentences.",
     ("Please ask one question at a time — the translator handles a "
      "single sentence.",)),
    ("word " * 70, "too-long", "The request has 70 tokens (limit 60).",
     ("The request is very long; please shorten it to a single, focused "
      "question.",)),
    ("Why do people jog?", "descriptive-why",
     'Questions starting with "Why ..." are descriptive and not '
     "supported.",
     ('"Why ...?" questions ask for causes, which cannot be mined as '
      "data patterns.",
      "Ask about the habits or opinions themselves: instead of "
      '"Why do people like jogging?" ask "Where do people like to '
      'jog?".')),
])
def test_rejections_unchanged(text, reason, message, tips):
    result = Verifier().verify(text)
    assert (result.ok, result.reason, result.message, result.tips) == (
        False, reason, message, tips
    )
    assert result.tokens == ()
