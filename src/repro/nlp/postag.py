"""Penn-Treebank part-of-speech tagger.

This replaces the Stanford tagger the paper instruments (Section 2.2).
The design is a classic three-stage rule tagger:

1. **Lexicon lookup** — closed classes exhaustively, open classes from a
   domain lexicon (:mod:`repro.nlp.postag_lexicon`); the first candidate
   tag is the default.
2. **Morphological guesser** — suffix and shape heuristics for unknown
   words (capitalization -> NNP, ``-ly`` -> RB, digits -> CD, ...).
3. **Contextual rules** — Brill-style transformations that repair the
   defaults using the left/right context (e.g. a verb-tagged word after a
   determiner becomes a noun; a base-form verb after ``to`` stays VB; a
   plural noun after a wh-copula stays NNS).

The tagger is deterministic and transparent — every decision can be
traced to a lexicon entry or a named rule, in the same spirit as the
paper's preference for declarative pattern matching over opaque models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import TaggingError
from repro.nlp.tokenizer import Token, tokenize
from repro.nlp.postag_lexicon import CLOSED_CLASS, OPEN_CLASS, TAGSET

__all__ = ["TaggedToken", "PosTagger", "tag"]


@dataclass(frozen=True, slots=True)
class TaggedToken:
    """A token paired with its Penn-Treebank POS tag."""

    token: Token
    tag: str

    @property
    def text(self) -> str:
        return self.token.text

    @property
    def lower(self) -> str:
        return self.token.lower

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.token.text}/{self.tag}"


_PUNCT_TAGS = {
    ",": ",", ".": ".", "!": ".", "?": ".", ";": ":", ":": ":",
    "(": "-LRB-", ")": "-RRB-", "[": "-LRB-", "]": "-RRB-",
    "{": "-LRB-", "}": "-RRB-", '"': "''", "`": "``", "``": "``",
    "''": "''", "'": "''", "“": "``", "”": "''", "‘": "``", "’": "''",
    "$": "$", "#": "#", "-": ":", "--": ":", "...": ":", "%": "SYM",
    "&": "CC", "/": "SYM", "<": "SYM", ">": "SYM", "«": "``", "»": "''",
}

_ORDINAL_RE = re.compile(r"^\d+(?:st|nd|rd|th)$", re.IGNORECASE)
_NUMBER_RE = re.compile(r"^[+-]?\d+(?:[.,:]\d+)*$")

# Suffix -> tag guesses for unknown words, checked longest-first.
_SUFFIX_TAGS: tuple[tuple[str, str], ...] = (
    ("ological", "JJ"), ("ability", "NN"), ("ibility", "NN"),
    ("ization", "NN"), ("ousness", "NN"),
    ("ments", "NNS"), ("nesses", "NNS"), ("ations", "NNS"),
    ("ment", "NN"), ("ness", "NN"), ("tion", "NN"), ("sion", "NN"),
    ("ance", "NN"), ("ence", "NN"), ("ship", "NN"), ("hood", "NN"),
    ("ism", "NN"), ("ist", "NN"), ("ity", "NN"), ("dom", "NN"),
    ("ware", "NN"), ("ology", "NN"), ("graphy", "NN"),
    ("able", "JJ"), ("ible", "JJ"), ("ical", "JJ"), ("ful", "JJ"),
    ("less", "JJ"), ("ous", "JJ"), ("ive", "JJ"), ("ish", "JJ"),
    ("ary", "JJ"), ("ile", "JJ"), ("ant", "JJ"), ("ent", "JJ"),
    ("al", "JJ"), ("ic", "JJ"),
    ("iest", "JJS"), ("ier", "JJR"),
    ("ingly", "RB"), ("edly", "RB"), ("fully", "RB"), ("ly", "RB"),
    ("ing", "VBG"), ("ed", "VBD"),
)


class PosTagger:
    """Deterministic rule-based POS tagger.

    Args:
        extra_lexicon: optional additional ``word -> (tags...)`` entries,
            e.g. domain terms taken from an ontology's labels.  These
            take precedence over the built-in open-class lexicon but not
            over closed-class words.
    """

    def __init__(self, extra_lexicon: dict[str, tuple[str, ...]] | None = None):
        self._lexicon: dict[str, tuple[str, ...]] = dict(OPEN_CLASS)
        if extra_lexicon:
            for word, tags in extra_lexicon.items():
                bad = set(tags) - TAGSET
                if bad:
                    raise TaggingError(
                        f"unknown tags {sorted(bad)} for lexicon entry "
                        f"{word!r}"
                    )
                self._lexicon[word.lower()] = tuple(tags)
        self._lexicon.update(CLOSED_CLASS)  # closed classes always win

    # -- public API ----------------------------------------------------------

    def tag(self, tokens: list[Token] | str) -> list[TaggedToken]:
        """Tag a token list (or raw text, which is tokenized first)."""
        if isinstance(tokens, str):
            tokens = tokenize(tokens)
        if not tokens:
            raise TaggingError("cannot tag an empty token list")
        tagged = [self._initial_tag(tok, i) for i, tok in enumerate(tokens)]
        self._apply_context_rules(tagged)
        return tagged

    def candidates(self, word: str) -> tuple[str, ...]:
        """All candidate tags the lexicon lists for ``word`` (may be empty)."""
        return self._lexicon.get(word.lower(), ())

    def known(self, word: str) -> bool:
        """True when the lexicon (not the guesser) covers ``word``.

        The accuracy harness uses this for its known/unknown-word
        accuracy split; punctuation counts as known since its tags are
        table-driven.
        """
        return word in _PUNCT_TAGS or word.lower() in self._lexicon

    # -- stage 1+2: lexicon and morphology -----------------------------------

    def _initial_tag(self, token: Token, position: int) -> TaggedToken:
        text = token.text
        if text in _PUNCT_TAGS:
            return TaggedToken(token, _PUNCT_TAGS[text])
        if not token.is_word:
            return TaggedToken(token, "SYM")

        lower = token.lower

        # Closed-class words keep their tags in any case ("The", "I", "We").
        closed = CLOSED_CLASS.get(lower)
        if closed:
            return TaggedToken(token, closed[0])

        # A capitalized word that is not sentence-initial is a proper noun
        # even when the lexicon knows its lower-case form: "Forest Hotel"
        # must become NNP NNP so the entity linker sees one mention.
        if text[0].isupper() and (position > 0 or "." in text):
            return TaggedToken(token, self._proper_noun_tag(text))

        entry = self._lexicon.get(lower)
        if entry:
            return TaggedToken(token, entry[0])

        if _NUMBER_RE.match(text) or _ORDINAL_RE.match(text):
            return TaggedToken(token, "CD")
        if any(ch.isupper() for ch in text[1:]):
            return TaggedToken(token, "NNP")

        guessed = self._guess_by_suffix(lower)
        if guessed:
            return TaggedToken(token, guessed)

        # Sentence-initial capitalized unknown word: prefer NNP only when
        # it does not look like a regular English word form.
        if text[0].isupper() and position == 0:
            return TaggedToken(token, "NNP")
        if lower.endswith("s") and len(lower) > 3:
            return TaggedToken(token, "NNS")
        return TaggedToken(token, "NN")

    @staticmethod
    def _proper_noun_tag(text: str) -> str:
        return "NNPS" if text.endswith("s") and len(text) > 3 else "NNP"

    @staticmethod
    def _guess_by_suffix(lower: str) -> str | None:
        for suffix, tag in _SUFFIX_TAGS:
            if lower.endswith(suffix) and len(lower) > len(suffix) + 2:
                return tag
        return None

    # -- stage 3: contextual repair rules -------------------------------------

    def _apply_context_rules(self, tagged: list[TaggedToken]) -> None:
        """Brill-style transformations, applied in one left-to-right pass."""
        n = len(tagged)
        for i in range(n):
            cur = tagged[i]
            prev = tagged[i - 1] if i > 0 else None
            nxt = tagged[i + 1] if i + 1 < n else None
            new_tag = self._context_tag(cur, prev, nxt, tagged, i)
            if new_tag and new_tag != cur.tag:
                tagged[i] = TaggedToken(cur.token, new_tag)

    def _context_tag(
        self,
        cur: TaggedToken,
        prev: TaggedToken | None,
        nxt: TaggedToken | None,
        tagged: list[TaggedToken],
        i: int,
    ) -> str | None:
        cands = self._lexicon.get(cur.lower, ())

        # RULE to-infinitive: "to" + ambiguous verb -> VB.
        if prev and prev.tag == "TO" and (
            cur.tag.startswith("V") or "VB" in cands
        ):
            return "VB"

        # RULE modal-verb: modal + ambiguous word that can be a verb -> VB.
        if prev and prev.tag == "MD":
            if "VB" in cands or cur.tag in ("VBP", "NN", "VB"):
                if cur.tag.startswith("V") or "VB" in cands:
                    return "VB"

        # RULE pronoun-verb: personal pronoun + noun-tagged word that can
        # be a verb -> finite verb ("should I store coffee", "we cook").
        if prev and prev.tag == "PRP" and cur.tag in ("NN", "NNS", "IN") and (
            "VB" in cands or "VBP" in cands
        ):
            return "VBP"

        # RULE det-noun: determiner/possessive + verb-tagged word -> noun.
        if prev and prev.tag in ("DT", "PRP$", "JJ", "JJS", "JJR") and (
            cur.tag in ("VB", "VBP")
        ):
            if "NN" in cands or not cands:
                return "NN"

        # RULE det-vbz-nns: determiner + VBZ-tagged word that can be a
        # plural noun -> NNS ("the rides").
        if prev and prev.tag in ("DT", "PRP$", "JJ", "JJS", "JJR") and (
            cur.tag == "VBZ" and "NNS" in cands
        ):
            return "NNS"

        # RULE that-complementizer: "that" before a clause subject is IN,
        # before a noun is DT, after a noun and before a verb is WDT.
        if cur.lower == "that":
            if nxt and nxt.tag.startswith(("N", "PRP", "DT", "JJ")):
                return "DT"
            if prev and prev.tag.startswith("N") and nxt and (
                nxt.tag.startswith("V") or nxt.tag == "MD"
            ):
                return "WDT"
            return "IN"

        # RULE degree-adverb: "most"/"least" directly before an adjective
        # is the superlative degree adverb ("the least crowded museums").
        if cur.lower in ("most", "least") and nxt and (
            nxt.tag.startswith("J") or nxt.tag in ("VBG", "VBN")
        ):
            return "RBS"

        # RULE graded-participle: a gerund/participle right after a
        # degree adverb is adjectival ("the most fascinating museum").
        if cur.tag in ("VBG", "VBN") and prev and prev.lower in (
            "most", "least", "very", "quite", "too", "extremely",
            "incredibly",
        ):
            return "JJ"

        # RULE what-det: "what"/"which" directly before a noun is WDT
        # ("What type of camera...").
        if cur.lower == "what" and nxt and nxt.tag.startswith(("NN", "JJ")):
            return "WDT"

        # RULE bare-apostrophe-possessive: "'" after a plural/proper noun
        # and before a nominal is the possessive clitic ("kids' dishes").
        if cur.text == "'" and prev and prev.tag in (
            "NNS", "NNP", "NNPS"
        ) and nxt and (nxt.tag.startswith(("NN", "JJ")) or nxt.tag == "CD"):
            return "POS"

        # RULE possessive-s: "'s" after a proper/common noun followed by a
        # noun is POS; otherwise it is the clitic verb.
        if cur.lower == "'s":
            if nxt and (nxt.tag.startswith(("NN", "JJ")) or nxt.tag == "CD"):
                return "POS"
            return "VBZ"

        # RULE vbd-vbn: a VBD after have/has/had/be-forms is VBN.
        if cur.tag == "VBD" and prev and prev.lower in (
            "have", "has", "had", "'ve", "is", "are", "was", "were", "be",
            "been", "being", "am", "'s", "'re", "'m", "get", "got",
        ):
            return "VBN"

        # RULE vbn-vbd: a lone VBN with no auxiliary to its left is VBD.
        if cur.tag == "VBN" and "VBD" in cands:
            has_aux = any(
                t.lower in ("have", "has", "had", "'ve", "be", "been",
                            "is", "are", "was", "were", "am", "'s", "'re")
                for t in tagged[max(0, i - 3):i]
            )
            if not has_aux:
                return "VBD"

        # RULE copula-adjective: be-form + VBG that the lexicon also lists
        # as JJ -> JJ ("is interesting" stays JJ via lexicon already).

        # RULE noun-before-verb: plural-looking VBZ directly before a
        # finite verb or modal is a plural noun ("the stores sell" handled
        # above; here "stores that sell").
        if cur.tag == "VBZ" and "NNS" in cands and nxt and nxt.tag in (
            "MD", "VBP", "VBD"
        ):
            return "NNS"

        # RULE sentence-initial-verb: an imperative start ("Find places
        # ...") — NN/NNP-tagged known verb at position 0 followed by a
        # determiner or noun becomes VB.
        if i == 0 and nxt and nxt.tag in ("DT", "PRP$", "NN", "NNS", "JJ",
                                          "PRP", "CD"):
            if "VB" in cands and cur.tag not in ("WRB", "WP", "WDT", "MD",
                                                 "VB"):
                return "VB"

        # RULE preposition-verb: IN/RP + verb-or-noun ambiguous ->
        # gerund/noun reading preferred; keep as is.

        # RULE adjectival-participle: VBG/VBN directly before a noun is JJ
        # when the lexicon allows ("existing tools") — approximate: only
        # when the word is lexicon-listed as JJ.
        if cur.tag in ("VBG", "VBN") and "JJ" in cands and nxt and (
            nxt.tag.startswith("NN")
        ):
            return "JJ"

        return None


_DEFAULT = PosTagger()


def tag(text_or_tokens: str | list[Token]) -> list[TaggedToken]:
    """Tag with a shared default :class:`PosTagger`."""
    return _DEFAULT.tag(text_or_tokens)
