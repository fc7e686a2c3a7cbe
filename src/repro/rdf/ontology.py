"""Ontology service: label index, entity lookup and schema views.

The general query generator (paper Section 2.4) aligns noun phrases of
the user's question with ontology concepts — entities, classes and
properties — and asks the user to disambiguate when several candidates
match ("Buffalo, NY vs. Buffalo, IL", Section 4.1).  This module builds
the lexical index that makes those lookups fast and rankable.

Conventions of our ontology snapshots (see ``repro/data/*.ttl``):

* ``kb:instanceOf`` links instances to classes (mirroring the paper's
  Figure 1 which uses ``instanceOf`` rather than ``rdf:type``);
* ``rdfs:label`` carries the preferred display label;
* ``kb:alias`` carries alternative surface forms.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from functools import lru_cache

from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Literal, Namespace, RDFS, Term
from repro.rdf.turtle import parse_turtle

__all__ = ["Ontology", "EntityMatch", "KB"]

#: The namespace every ontology snapshot uses for its terms.
KB = Namespace("http://repro.example/kb/")


#: How many ``lookup`` results one ontology memoizes.  Past the bound,
#: the oldest entry goes first.
LOOKUP_MEMO_SIZE = 1024

_NON_WORD = re.compile(r"[^\w\s,]")
_COMMA_RUN = re.compile(r"\s*,\s*")
_SPACE_RUN = re.compile(r"\s+")


@lru_cache(maxsize=4096)
def normalize_label(text: str) -> str:
    """Lower-case, collapse whitespace/underscores, strip punctuation.

    Pure string -> string, and the same surface forms recur constantly
    (index construction, entity lookup, every lint pass), so the cache
    turns repeat normalization into a dict hit.
    """
    text = _NON_WORD.sub("", text.replace("_", " ").lower())
    text = _COMMA_RUN.sub(", ", text)
    return _SPACE_RUN.sub(" ", text).strip()


@dataclass(frozen=True, slots=True)
class EntityMatch:
    """A candidate alignment of a text phrase with an ontology term.

    ``score`` is in (0, 1]; 1.0 is an exact preferred-label match.
    ``kind`` is ``entity``, ``class`` or ``property``.
    """

    iri: IRI
    label: str
    score: float
    kind: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.label} <{self.iri.value}> ({self.kind}, {self.score:.2f})"


@dataclass
class _LabelEntry:
    iri: IRI
    label: str
    preferred: bool
    kind: str
    tokens: frozenset[str] = field(default_factory=frozenset)
    degree: int = 0


class Ontology:
    """A triple store plus lexical and schema indexes."""

    def __init__(self, store: TripleStore):
        self.store = store
        self._entries: dict[str, list[_LabelEntry]] = {}
        self._by_token: dict[str, list[_LabelEntry]] = {}
        self._classes: set[IRI] = set()
        self._properties: set[IRI] = set()
        # (store epoch, phrase, kinds) -> ranked matches.  Reads take no
        # lock; inserts and evictions do, so the bound always holds.
        self._lookup_memo: dict[tuple, tuple[EntityMatch, ...]] = {}
        self._memo_lock = threading.Lock()
        self._build_indexes()

    @classmethod
    def from_turtle(cls, text: str) -> "Ontology":
        """Build an ontology from a Turtle document."""
        return cls(parse_turtle(text))

    @classmethod
    def merged(cls, *ontologies: "Ontology") -> "Ontology":
        """Union of several ontologies (e.g. LinkedGeoData + DBpedia)."""
        store = TripleStore()
        for onto in ontologies:
            store.add_all(onto.store.triples())
            store.prefixes.update(onto.store.prefixes)
        return cls(store)

    def freeze(self) -> "Ontology":
        """Freeze the backing store (see :meth:`TripleStore.freeze`).

        The lexical/schema indexes are derived from the store at
        construction; freezing guarantees they can never drift from it.
        Returns ``self`` for chaining.
        """
        self.store.freeze()
        return self

    def copy(self) -> "Ontology":
        """A mutable deep copy: fresh store, freshly built indexes.

        This is how callers holding a frozen (cached) ontology obtain
        one they may mutate — e.g. the seeded mutation tests that delete
        a triple and re-lint.
        """
        return Ontology(self.store.copy())

    # -- index construction ------------------------------------------------------

    def _build_indexes(self) -> None:
        instance_of = KB.instanceOf
        alias = KB.alias

        for s, _, o in self.store.triples(None, instance_of, None):
            if isinstance(o, IRI):
                self._classes.add(o)
        self._properties = {
            p for p in self.store.predicates()
            if isinstance(p, IRI) and p not in (RDFS.label, alias)
        }

        def classify(iri: IRI) -> str:
            if iri in self._classes:
                return "class"
            if iri in self._properties:
                return "property"
            return "entity"

        subjects = {
            s for s, _, _ in self.store.triples() if isinstance(s, IRI)
        }
        objects = {
            o for _, _, o in self.store.triples() if isinstance(o, IRI)
        }
        for iri in sorted(subjects | objects | self._properties,
                          key=lambda t: t.value):
            labels: list[tuple[str, bool]] = []
            for _, _, o in self.store.triples(iri, RDFS.label, None):
                if isinstance(o, Literal):
                    labels.append((str(o.value), True))
            for _, _, o in self.store.triples(iri, alias, None):
                if isinstance(o, Literal):
                    labels.append((str(o.value), False))
            if not labels:
                labels.append((iri.local_name.replace("_", " "), True))
            for text, preferred in labels:
                self._add_entry(iri, text, preferred, classify(iri))

    def _add_entry(
        self, iri: IRI, label: str, preferred: bool, kind: str
    ) -> None:
        normalized = normalize_label(label)
        if not normalized:
            return
        entry = _LabelEntry(
            iri=iri,
            label=label,
            preferred=preferred,
            kind=kind,
            tokens=frozenset(normalized.replace(",", " ").split()),
            degree=self._degree(iri),
        )
        self._entries.setdefault(normalized, []).append(entry)
        for token in entry.tokens:
            self._by_token.setdefault(token, []).append(entry)

    def _degree(self, iri: IRI) -> int:
        """How prominent an entity is: its number of incident triples.

        Used to break ranking ties the way FREyA's ontology-based
        scores do — "Buffalo" prefers the Buffalo with the most facts
        (and incoming links) about it.
        """
        return self.store.count(iri, None, None) + self.store.count(
            None, None, iri
        )

    # -- lexical lookup --------------------------------------------------------------

    def lookup(self, phrase: str, kinds: tuple[str, ...] | None = None
               ) -> list[EntityMatch]:
        """Rank ontology terms matching ``phrase``.

        Scoring: 1.0 exact preferred label; 0.9 exact alias; otherwise
        token-overlap Jaccard scaled to (0, 0.8].  Ties break by entity
        prominence (incident-triple degree), then label.

        Results are memoized per ``(store epoch, phrase, kinds)``: any
        add or remove moves the epoch, so a mutated store is never
        served a stale ranking or label.  Each call returns a fresh
        list.
        """
        key = (self.store.epoch, phrase, kinds)
        cached = self._lookup_memo.get(key)
        if cached is None:
            cached = tuple(self._rank(phrase, kinds))
            with self._memo_lock:
                memo = self._lookup_memo
                while len(memo) >= LOOKUP_MEMO_SIZE:
                    del memo[next(iter(memo))]
                memo[key] = cached
        return list(cached)

    def _rank(self, phrase: str, kinds: tuple[str, ...] | None
              ) -> list[EntityMatch]:
        normalized = normalize_label(phrase)
        if not normalized:
            return []
        query_tokens = frozenset(normalized.replace(",", " ").split())

        scored: dict[IRI, EntityMatch] = {}
        degrees: dict[IRI, int] = {}

        def consider(entry: _LabelEntry, score: float) -> None:
            if kinds is not None and entry.kind not in kinds:
                return
            current = scored.get(entry.iri)
            if current is None or score > current.score:
                # Matches display the *preferred* label, so candidates
                # that matched via a shared alias ("Buffalo") are still
                # distinguishable in the disambiguation dialogue.
                scored[entry.iri] = EntityMatch(
                    iri=entry.iri, label=self.label_of(entry.iri),
                    score=score, kind=entry.kind,
                )
                degrees[entry.iri] = entry.degree

        for entry in self._entries.get(normalized, []):
            consider(entry, 1.0 if entry.preferred else 0.9)

        candidates: set[int] = set()
        seen_entries: list[_LabelEntry] = []
        for token in query_tokens:
            for entry in self._by_token.get(token, []):
                if id(entry) not in candidates:
                    candidates.add(id(entry))
                    seen_entries.append(entry)
        for entry in seen_entries:
            overlap = len(entry.tokens & query_tokens)
            if not overlap:
                continue
            union = len(entry.tokens | query_tokens)
            jaccard = overlap / union
            if jaccard >= 0.99:
                continue  # exact matches handled above
            consider(entry, 0.8 * jaccard)

        return sorted(
            scored.values(),
            key=lambda m: (-m.score, -degrees.get(m.iri, 0), m.label,
                           m.iri.value),
        )

    def best_match(self, phrase: str,
                   kinds: tuple[str, ...] | None = None,
                   threshold: float = 0.3) -> EntityMatch | None:
        """The top match for ``phrase`` above ``threshold``, if any."""
        matches = self.lookup(phrase, kinds)
        if matches and matches[0].score >= threshold:
            return matches[0]
        return None

    # -- schema views -------------------------------------------------------------------

    @property
    def classes(self) -> frozenset[IRI]:
        """All IRIs used as classes (objects of ``instanceOf``)."""
        return frozenset(self._classes)

    @property
    def properties(self) -> frozenset[IRI]:
        """All predicate IRIs (minus label/alias bookkeeping)."""
        return frozenset(self._properties)

    def label_of(self, iri: IRI) -> str:
        """The preferred label of ``iri`` (falls back to the local name)."""
        value = self.store.value(iri, RDFS.label, None)
        if isinstance(value, Literal):
            return str(value.value)
        return iri.local_name.replace("_", " ")

    def instances_of(self, cls: IRI) -> list[IRI]:
        """All instances of a class, in stable order."""
        return sorted(
            (s for s in self.store.subjects(KB.instanceOf, cls)
             if isinstance(s, IRI)),
            key=lambda t: t.value,
        )

    def types_of(self, iri: IRI) -> list[IRI]:
        """All classes an entity is an instance of."""
        return sorted(
            (o for o in self.store.objects(iri, KB.instanceOf)
             if isinstance(o, IRI)),
            key=lambda t: t.value,
        )

    def vocabulary_words(self) -> set[str]:
        """Every token occurring in a label — feeds the tagger lexicon."""
        return set(self._by_token)

    def __len__(self) -> int:
        return len(self.store)
