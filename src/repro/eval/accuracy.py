"""Per-pack accuracy harness: the one quality scorer.

Every quality number of the system comes from here, per scenario pack:

* **POS accuracy** — token and whole-sentence accuracy against the
  pack's ``gold_nlp.conll``, split into known vs. unknown words (per the
  tagger's own ``known()``), with a gold-to-predicted confusion matrix
  over the mismatches;
* **Parse accuracy** — unlabeled/labeled attachment score (UAS/LAS)
  of the dependency parser against the gold trees;
* **Translation quality** — one translation per supported corpus
  question, scored on IX-anchor P/R/F1, well-formedness (the printed
  query parses back to itself), general-entity recall, gold-query
  exact match and structural similarity
  (:func:`~repro.eval.metrics.query_structure_score`).

The report keeps two totals apart: **development** (packs cut from the
embedded demo corpus, which the lexicon, patterns and vocabularies were
built against) and **held-out** (every other pack).  Experiment E2
scores the demo corpus per domain; E15 and ``python -m repro --score``
score every builtin pack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.data.corpus import CORPUS
from repro.data.goldnlp import GoldSentence
from repro.data.scenario import ScenarioPack, load_builtin_packs
from repro.errors import ReproError
from repro.eval.harness import format_table
from repro.eval.metrics import (
    PrecisionRecall,
    query_structure_score,
    set_precision_recall,
)
from repro.nlp.depparse import DependencyParser
from repro.nlp.postag import PosTagger
from repro.nlp.tokenizer import tokenize
from repro.rdf.terms import IRI

__all__ = [
    "PosAccuracy", "ParseAccuracy", "TranslationAccuracy",
    "PackAccuracy", "AccuracyReport", "score_pos", "score_parse",
    "score_translation", "score_pack", "evaluate_accuracy",
]


# ---------------------------------------------------------------------------
# POS accuracy
# ---------------------------------------------------------------------------

@dataclass
class PosAccuracy:
    """Token/sentence POS accuracy with a known/unknown-word split."""

    tokens: int = 0
    correct: int = 0
    known_tokens: int = 0
    known_correct: int = 0
    sentences: int = 0
    sentences_correct: int = 0
    #: sentences whose tokenization disagreed with the gold forms;
    #: they cannot be aligned and are excluded from the counts.
    skipped: int = 0
    #: (gold tag, predicted tag) -> count, mismatches only.
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.correct / self.tokens if self.tokens else 1.0

    @property
    def sentence_accuracy(self) -> float:
        return (
            self.sentences_correct / self.sentences
            if self.sentences else 1.0
        )

    @property
    def unknown_tokens(self) -> int:
        return self.tokens - self.known_tokens

    @property
    def known_accuracy(self) -> float:
        return (
            self.known_correct / self.known_tokens
            if self.known_tokens else 1.0
        )

    @property
    def unknown_accuracy(self) -> float:
        unknown = self.unknown_tokens
        return (
            (self.correct - self.known_correct) / unknown
            if unknown else 1.0
        )

    def add(self, other: "PosAccuracy") -> None:
        self.tokens += other.tokens
        self.correct += other.correct
        self.known_tokens += other.known_tokens
        self.known_correct += other.known_correct
        self.sentences += other.sentences
        self.sentences_correct += other.sentences_correct
        self.skipped += other.skipped
        for pair, count in other.confusion.items():
            self.confusion[pair] = self.confusion.get(pair, 0) + count


def score_pos(
    tagger, sentences: tuple[GoldSentence, ...] | list[GoldSentence]
) -> PosAccuracy:
    """Score one tagger against gold sentences.

    ``tagger`` needs the ``PosTagger`` interface: ``tag(tokens)`` and
    ``known(word)``.
    """
    acc = PosAccuracy()
    for sentence in sentences:
        tokens = tokenize(sentence.text)
        if tuple(t.text for t in tokens) != sentence.forms():
            acc.skipped += 1
            continue
        tagged = tagger.tag(tokens)
        acc.sentences += 1
        all_correct = True
        for predicted, gold in zip(tagged, sentence.tokens):
            acc.tokens += 1
            known = bool(tagger.known(predicted.text))
            if known:
                acc.known_tokens += 1
            if predicted.tag == gold.tag:
                acc.correct += 1
                if known:
                    acc.known_correct += 1
            else:
                all_correct = False
                pair = (gold.tag, predicted.tag)
                acc.confusion[pair] = acc.confusion.get(pair, 0) + 1
        if all_correct:
            acc.sentences_correct += 1
    return acc


# ---------------------------------------------------------------------------
# Parse accuracy (UAS / LAS)
# ---------------------------------------------------------------------------

@dataclass
class ParseAccuracy:
    """Unlabeled / labeled attachment scores against gold trees."""

    tokens: int = 0
    uas_correct: int = 0
    las_correct: int = 0
    sentences: int = 0
    #: tokenization mismatches + parser failures, excluded from counts.
    skipped: int = 0

    @property
    def uas(self) -> float:
        return self.uas_correct / self.tokens if self.tokens else 1.0

    @property
    def las(self) -> float:
        return self.las_correct / self.tokens if self.tokens else 1.0

    def add(self, other: "ParseAccuracy") -> None:
        self.tokens += other.tokens
        self.uas_correct += other.uas_correct
        self.las_correct += other.las_correct
        self.sentences += other.sentences
        self.skipped += other.skipped


def score_parse(
    parser: DependencyParser,
    sentences: tuple[GoldSentence, ...] | list[GoldSentence],
) -> ParseAccuracy:
    """Score a dependency parser's attachments against gold trees."""
    acc = ParseAccuracy()
    for sentence in sentences:
        try:
            graph = parser.parse(sentence.text)
        except ReproError:
            acc.skipped += 1
            continue
        nodes = graph.nodes()
        if tuple(n.text for n in nodes) != sentence.forms():
            acc.skipped += 1
            continue
        acc.sentences += 1
        for node, gold in zip(nodes, sentence.tokens):
            acc.tokens += 1
            edge = graph.parent_edge(node)
            if edge is None or edge.head.is_root:
                head, label = 0, "root"
            else:
                head, label = edge.head.index + 1, edge.label
            if head == gold.head:
                acc.uas_correct += 1
                if label == gold.label:
                    acc.las_correct += 1
    return acc


# ---------------------------------------------------------------------------
# Translation quality per pack
# ---------------------------------------------------------------------------

@dataclass
class TranslationAccuracy:
    """End-to-end translation quality over one pack's supported corpus.

    Every supported question feeds the IX, well-formedness and entity
    columns; the ones with a gold query also feed exact match and
    structure.  A failed translation scores as an empty output: its
    gold anchors and entities are misses, it is not well-formed, and
    its gold query counts in the exact and structure denominators with
    nothing in the numerators.
    """

    questions: int = 0
    ix: PrecisionRecall = field(
        default_factory=lambda: PrecisionRecall(0, 0, 0)
    )
    wellformed: int = 0
    entity_hits: int = 0
    entity_total: int = 0
    gold_queries: int = 0
    exact: int = 0
    structure_sum: float = 0.0
    failures: int = 0

    @property
    def entity_recall(self) -> float:
        return (
            self.entity_hits / self.entity_total
            if self.entity_total else 1.0
        )

    @property
    def exact_rate(self) -> float:
        return (
            self.exact / self.gold_queries if self.gold_queries else 1.0
        )

    @property
    def structure_avg(self) -> float:
        return (
            self.structure_sum / self.gold_queries
            if self.gold_queries else 1.0
        )

    def add(self, other: "TranslationAccuracy") -> None:
        self.questions += other.questions
        self.ix = self.ix + other.ix
        self.wellformed += other.wellformed
        self.entity_hits += other.entity_hits
        self.entity_total += other.entity_total
        self.gold_queries += other.gold_queries
        self.exact += other.exact
        self.structure_sum += other.structure_sum
        self.failures += other.failures


def _query_local_names(query) -> set[str]:
    """Local names of every IRI in the WHERE and SATISFYING triples."""
    triples = list(query.where) + [
        t for clause in query.satisfying for t in clause.triples
    ]
    return {
        term.local_name
        for triple in triples
        for term in triple.terms()
        if isinstance(term, IRI)
    }


def score_translation(pack: ScenarioPack) -> TranslationAccuracy:
    """Translate the pack's supported questions once; score every column."""
    from repro.core.pipeline import NL2CM
    from repro.oassisql.parser import parse_oassisql
    from repro.ui.interaction import AutoInteraction

    nl2cm = NL2CM(
        ontology=pack.ontology,
        patterns=pack.patterns,
        vocabularies=pack.vocabularies,
        interaction=AutoInteraction(),
    )
    acc = TranslationAccuracy()
    for question in pack.corpus:
        if not question.supported:
            continue
        acc.questions += 1
        acc.entity_total += len(question.gold_general_entities)
        if question.gold_query is not None:
            acc.gold_queries += 1
        gold_anchors = set(question.gold_ix_anchors)
        try:
            result = nl2cm.translate(question.text)
        except ReproError:
            acc.failures += 1
            acc.ix = acc.ix + set_precision_recall(set(), gold_anchors)
            continue
        acc.ix = acc.ix + set_precision_recall(
            {ix.anchor.lower for ix in result.ixs}, gold_anchors
        )
        acc.wellformed += int(
            parse_oassisql(result.query_text) == result.query
        )
        names = _query_local_names(result.query)
        acc.entity_hits += sum(
            1 for e in question.gold_general_entities if e in names
        )
        if question.gold_query is not None:
            acc.exact += int(result.query_text == question.gold_query)
            acc.structure_sum += query_structure_score(
                result.query,
                parse_oassisql(question.gold_query, validate=False),
            )
    return acc


# ---------------------------------------------------------------------------
# Per-pack bundle and the report
# ---------------------------------------------------------------------------

@dataclass
class PackAccuracy:
    """Every accuracy surface of one pack."""

    name: str
    pos: PosAccuracy = field(default_factory=PosAccuracy)
    parse: ParseAccuracy = field(default_factory=ParseAccuracy)
    translation: TranslationAccuracy = field(
        default_factory=TranslationAccuracy
    )


def score_pack(pack: ScenarioPack) -> PackAccuracy:
    """Score one pack on every surface."""
    return PackAccuracy(
        name=pack.name,
        pos=score_pos(PosTagger(), pack.gold_nlp),
        parse=score_parse(DependencyParser(), pack.gold_nlp),
        translation=score_translation(pack),
    )


#: Total-row names: packs cut from the embedded demo corpus (whose
#: lexicon, patterns and vocabularies were built against it) versus
#: every other pack.
DEVELOPMENT = "development"
HELD_OUT = "held-out"


def _sum_packs(name: str, packs: list[PackAccuracy]) -> PackAccuracy:
    total = PackAccuracy(name=name)
    for pack in packs:
        total.pos.add(pack.pos)
        total.parse.add(pack.parse)
        total.translation.add(pack.translation)
    return total


@dataclass
class AccuracyReport:
    """The full accuracy report: per-pack scores plus group totals."""

    packs: list[PackAccuracy]

    def totals(self) -> PackAccuracy:
        """Aggregate counts over every pack."""
        return _sum_packs("ALL", self.packs)

    def group_totals(self) -> dict[str, PackAccuracy]:
        """Development and held-out totals; an empty group is left out.

        A pack is development data when its name is a domain of the
        embedded demo corpus.
        """
        development = {q.domain for q in CORPUS}
        groups: dict[str, list[PackAccuracy]] = {
            DEVELOPMENT: [], HELD_OUT: [],
        }
        for pack in self.packs:
            group = DEVELOPMENT if pack.name in development else HELD_OUT
            groups[group].append(pack)
        return {
            name: _sum_packs(name, packs)
            for name, packs in groups.items() if packs
        }

    def pack(self, name: str) -> PackAccuracy:
        for pack in self.packs:
            if pack.name == name:
                return pack
        raise KeyError(name)

    # -- rendering -----------------------------------------------------------

    def format(self) -> str:
        blocks = [
            "POS tagging accuracy (per pack)",
            self._format_pos(),
            "",
            "Dependency attachment (per pack)",
            self._format_parse(),
            "",
            "Translation quality (per pack)",
            self.format_translation(),
        ]
        confusion = self._format_confusion()
        if confusion:
            blocks += ["", "Top confusions (all packs)",
                       confusion]
        return "\n".join(blocks)

    def _rows(self) -> list[PackAccuracy]:
        return [*self.packs, *self.group_totals().values()]

    def _format_pos(self) -> str:
        headers = ["pack", "tokens", "acc", "sent-acc", "known",
                   "unknown"]
        rows = []
        for pack in self._rows():
            p = pack.pos
            rows.append([
                pack.name, p.tokens,
                f"{p.accuracy:.3f}",
                f"{p.sentence_accuracy:.3f}",
                f"{p.known_accuracy:.3f}",
                f"{p.unknown_accuracy:.3f}",
            ])
        return format_table(headers, rows)

    def _format_parse(self) -> str:
        headers = ["pack", "tokens", "UAS", "LAS"]
        rows = []
        for pack in self._rows():
            p = pack.parse
            rows.append([
                pack.name, p.tokens,
                f"{p.uas:.3f}", f"{p.las:.3f}",
            ])
        return format_table(headers, rows)

    def format_translation(self) -> str:
        """The translation table alone: one row per pack and group."""
        headers = ["pack", "n", "IX-P", "IX-R", "IX-F1", "wellformed",
                   "entity-recall", "exact", "structure", "failures"]
        rows = []
        for pack in self._rows():
            t = pack.translation
            rows.append([
                pack.name, t.questions,
                f"{t.ix.precision:.2f}", f"{t.ix.recall:.2f}",
                f"{t.ix.f1:.2f}",
                f"{t.wellformed}/{t.questions}",
                f"{t.entity_recall:.2f}",
                f"{t.exact}/{t.gold_queries}",
                f"{t.structure_avg:.2f}",
                t.failures,
            ])
        return format_table(headers, rows)

    def _format_confusion(self, top: int = 10) -> str:
        pairs = _ranked_confusion(self.totals().pos)[:top]
        if not pairs:
            return ""
        rows = [
            [gold, predicted, count]
            for (gold, predicted), count in pairs
        ]
        return format_table(["gold", "predicted", "count"], rows)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-ready artifact, shaped like the bench result files."""
        def pos_dict(p: PosAccuracy) -> dict:
            return {
                "tokens": p.tokens,
                "accuracy": round(p.accuracy, 4),
                "sentence_accuracy": round(p.sentence_accuracy, 4),
                "known_accuracy": round(p.known_accuracy, 4),
                "unknown_accuracy": round(p.unknown_accuracy, 4),
                "skipped": p.skipped,
            }

        def parse_dict(p: ParseAccuracy) -> dict:
            return {
                "tokens": p.tokens,
                "uas": round(p.uas, 4),
                "las": round(p.las, 4),
                "skipped": p.skipped,
            }

        def translation_dict(t: TranslationAccuracy) -> dict:
            return {
                "questions": t.questions,
                "ix_precision": round(t.ix.precision, 4),
                "ix_recall": round(t.ix.recall, 4),
                "ix_f1": round(t.ix.f1, 4),
                "wellformed": t.wellformed,
                "entity_recall": round(t.entity_recall, 4),
                "gold_queries": t.gold_queries,
                "exact": t.exact,
                "exact_rate": round(t.exact_rate, 4),
                "structure_avg": round(t.structure_avg, 4),
                "failures": t.failures,
            }

        def pack_dict(pack: PackAccuracy) -> dict:
            return {
                "pos": pos_dict(pack.pos),
                "parse": parse_dict(pack.parse),
                "translation": translation_dict(pack.translation),
            }

        groups = self.group_totals()
        return {
            "experiment": "accuracy",
            "packs": {
                pack.name: pack_dict(pack) for pack in self.packs
            },
            **{
                name: pack_dict(groups[name]) if name in groups else None
                for name in (DEVELOPMENT, HELD_OUT)
            },
            "confusion": {
                f"{gold}->{predicted}": count
                for (gold, predicted), count
                in _ranked_confusion(self.totals().pos)
            },
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            "utf-8",
        )


def _ranked_confusion(pos: PosAccuracy) -> list:
    """Confusion pairs, most frequent first, ties by (gold, predicted)."""
    return sorted(pos.confusion.items(), key=lambda item: (-item[1], item[0]))


def evaluate_accuracy(
    packs: list[ScenarioPack] | None = None,
) -> AccuracyReport:
    """Score every builtin pack (or the given ones) on every surface."""
    if packs is None:
        packs = list(load_builtin_packs())
    return AccuracyReport(packs=[score_pack(pack) for pack in packs])
