"""Seeded property suite for the NLP substrate (accuracy-harness PR).

Three families of invariants the accuracy harness leans on:

* **offset round-trip** — every token's ``(start, end)`` span maps back
  to exactly its surface text, so gold alignment by form is sound;
* **tag-set closure** — the tagger only ever emits tags from
  :data:`TAGSET`, on arbitrary fuzzed input, so confusion matrices and
  gold validation share one closed label space;
* **determinism** — tagging the same input twice yields identical
  output.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.nlp.postag import PosTagger
from repro.nlp.postag_lexicon import TAGSET
from repro.nlp.tokenizer import tokenize

#: In-domain words, OOV words, contractions, numbers and punctuation —
#: enough variety to exercise the tagger's guesser paths.
WORDS = [
    "Where", "do", "you", "visit", "in", "Buffalo", "the", "best",
    "places", "we", "should", "go", "hiking", "winter", "don't",
    "hotel's", "thrill-ride", "42", "3.5", "Zanzibar", "quokkas",
    "frobnicate", "xylophonic", "?", ",", "!", "(", ")", "McDonald",
    "e.g.", "U.S.", "it's",
]

sentences = st.lists(
    st.sampled_from(WORDS), min_size=1, max_size=10
).map(" ".join)

raw_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd", "Po", "Ps", "Pe", "Zs"),
        max_codepoint=0x2FF,
    ),
    max_size=60,
)

RULES = PosTagger()


class TestTokenizerOffsets:
    @given(raw_text)
    @settings(max_examples=300)
    def test_spans_map_back_to_surface_text(self, text):
        try:
            tokens = tokenize(text)
        except ReproError:
            return  # rejecting weird input is fine; mis-mapping is not
        for token in tokens:
            assert text[token.start : token.end] == token.text

    @given(raw_text)
    @settings(max_examples=300)
    def test_spans_are_ordered_and_indices_sequential(self, text):
        try:
            tokens = tokenize(text)
        except ReproError:
            return
        for i, token in enumerate(tokens):
            assert token.index == i
            assert token.start < token.end
            if i:
                assert token.start >= tokens[i - 1].end


class TestTagsetClosure:
    @given(sentences)
    @settings(max_examples=200)
    def test_rules_tagger_stays_inside_the_tagset(self, text):
        tokens = tokenize(text)
        if not tokens:
            return
        for tagged in RULES.tag(tokens):
            assert tagged.tag in TAGSET


class TestDeterminism:
    @given(sentences)
    @settings(max_examples=100)
    def test_rules_tagging_is_repeatable(self, text):
        tokens = tokenize(text)
        if not tokens:
            return
        first = [(t.text, t.tag) for t in RULES.tag(tokens)]
        second = [(t.text, t.tag) for t in PosTagger().tag(tokens)]
        assert first == second
