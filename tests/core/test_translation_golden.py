"""Golden translation identity: printed OASSIS-QL and IX match lists.

For every question of the demo corpus, of every builtin scenario pack
(each with its own translator) and for the paper's Figure 1 question,
the digest covers

* the printed OASSIS-QL, or the class name of the error raised;
* the ordered IXFinder match list, as ``(pattern name, sorted
  (variable, node index) pairs)``.

The digest was computed before the Figure-2 hot path was compiled (the
indexed IX matcher, tokenize-once and the ontology lookup memo), so
any change to what the pipeline prints, or to which matches it finds
and in which order, fails it.
"""

import hashlib
import json

from repro import NL2CM
from repro.data.corpus import CORPUS
from repro.data.scenario import load_builtin_packs
from repro.errors import ReproError

GOLDEN_DIGEST = (
    "50adc391a063e3f9c789c7cf5a0419b0092789e8fa7ba815aec5150825bffd5b"
)

FIGURE1 = (
    "What are the most interesting places near Forest Hotel, Buffalo, "
    "we should visit in the fall?"
)


def match_list(translator: NL2CM, text: str):
    """The finder's ordered matches, or the error class name."""
    if not translator.verify(text).ok:
        return "unverified"
    try:
        graph = translator.parser.parse(text)
    except ReproError as err:
        return type(err).__name__
    return [
        [m.pattern.name,
         sorted((var, node.index) for var, node in m.binding.items())]
        for m in translator.finder.find(graph)
    ]


def printed(translator: NL2CM, text: str) -> str:
    try:
        return translator.translate(text).query_text
    except ReproError as err:
        return type(err).__name__


def golden_records():
    default = NL2CM()
    suites = [("corpus", default, [q.text for q in CORPUS])]
    suites.append(("figure-1", default, [FIGURE1]))
    for pack in load_builtin_packs():
        translator = NL2CM(
            ontology=pack.ontology,
            patterns=pack.patterns,
            vocabularies=pack.vocabularies,
        )
        suites.append((pack.name, translator, [q.text for q in pack.corpus]))
    return [
        [suite, text, printed(translator, text),
         match_list(translator, text)]
        for suite, translator, texts in suites
        for text in texts
    ]


def test_golden_translation_digest():
    records = golden_records()
    assert len(records) == 132
    digest = hashlib.sha256(
        json.dumps(records).encode("utf-8")
    ).hexdigest()
    assert digest == GOLDEN_DIGEST
