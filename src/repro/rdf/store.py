"""Indexed in-memory triple store.

The store keeps three permutation indexes (SPO, POS, OSP) so that any
triple pattern with at least one bound position is answered by hash
lookups rather than scans — the standard design of in-memory RDF stores.
Pattern positions are bound by passing a term and left open by passing
``None`` (or a :class:`~repro.rdf.terms.Variable`, which is treated as
open for convenience when evaluating query patterns).

The store also maintains **persistent cardinality statistics** for the
cost-based query planner (:mod:`repro.rdf.planner`): total size,
per-predicate triple counts, and per-predicate distinct subject/object
counts, all updated incrementally in :meth:`add`/:meth:`remove` — no
rescans, ever.  :meth:`stats` snapshots them and :meth:`estimate`
answers O(1) selectivity questions that :meth:`count` would answer with
O(index-row) sums.  Every successful mutation bumps :attr:`epoch`,
which is how cached query plans detect staleness.

The innermost index rows are dicts used as ordered sets: a ``set`` of
terms iterates in string-hash order, so BGP solutions (and the crowd
tasks issued per binding) would change order with ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import FrozenStoreError
from repro.rdf.terms import IRI, Literal, BNode, Term, Triple, Variable

__all__ = ["PredicateStats", "StoreStats", "TripleStore"]

#: Distinct tokens for store identity (plan-cache keys survive id()
#: reuse because tokens are never recycled).
_STORE_TOKENS = itertools.count(1)


@dataclass(frozen=True)
class PredicateStats:
    """Cardinality summary of one predicate.

    ``triples / distinct_subjects`` is the average out-degree (objects
    per subject); ``triples / distinct_objects`` the average in-degree.
    """

    triples: int
    distinct_subjects: int
    distinct_objects: int


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time snapshot of the store's cardinality statistics.

    All numbers are maintained incrementally by ``add``/``remove``;
    taking the snapshot copies the per-predicate table but performs no
    index scans.
    """

    size: int
    distinct_subjects: int
    distinct_objects: int
    epoch: int
    predicates: dict[Term, PredicateStats]

# Concrete (non-variable) term types allowed in stored triples.
_CONCRETE = (IRI, Literal, BNode)


def _as_pattern(term: Term | None) -> Term | None:
    """Variables act as wildcards in pattern positions."""
    return None if isinstance(term, Variable) else term


class TripleStore:
    """A set of RDF triples with SPO/POS/OSP hash indexes.

    The store also carries a prefix table used by the Turtle serializer
    and for debugging output.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._spo: dict[Term, dict[Term, dict[Term, None]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        self._pos: dict[Term, dict[Term, dict[Term, None]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        self._osp: dict[Term, dict[Term, dict[Term, None]]] = defaultdict(
            lambda: defaultdict(dict)
        )
        self._size = 0
        # Incremental cardinality statistics (see module docstring).
        self._pred_triples: dict[Term, int] = {}
        self._pred_subjects: dict[Term, int] = {}
        self._pred_objects: dict[Term, int] = {}
        self._epoch = 0
        self._token = next(_STORE_TOKENS)
        self._frozen = False
        self.prefixes: dict[str, str] = {}
        for s, p, o in triples:
            self.add(s, p, o)

    @property
    def epoch(self) -> int:
        """Mutation counter; bumped by every successful add/remove."""
        return self._epoch

    @property
    def token(self) -> int:
        """Process-unique store identity (never recycled, unlike id())."""
        return self._token

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has been called."""
        return self._frozen

    def freeze(self) -> "TripleStore":
        """Make the store immutable: ``add``/``remove`` raise afterwards.

        Used by the ``lru_cache``'d ontology loaders so a shared cached
        snapshot cannot be mutated in place (which would silently poison
        every later caller).  Freezing is one-way; take a :meth:`copy`
        for a mutable clone.  Returns ``self`` for chaining.
        """
        self._frozen = True
        return self

    # -- mutation ---------------------------------------------------------------

    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Add one triple; returns False if it was already present.

        Raises:
            TypeError: if any position is a variable or a non-RDF value.
            FrozenStoreError: if the store has been frozen.
        """
        if self._frozen:
            raise FrozenStoreError(
                "cannot add to a frozen store; use copy() for a "
                "mutable clone"
            )
        for pos_name, term in (("subject", s), ("predicate", p),
                               ("object", o)):
            if not isinstance(term, _CONCRETE):
                raise TypeError(
                    f"{pos_name} must be IRI/Literal/BNode, got "
                    f"{type(term).__name__}"
                )
        row = self._spo.get(s)
        objs = row.get(p) if row is not None else None
        if objs is not None and o in objs:
            return False
        # Statistics bookkeeping needs the *pre-insert* index state:
        # s is a new subject of p iff s had no p-edge yet, and o a new
        # object of p iff the POS row for (p, o) did not exist.
        new_subject = objs is None
        by_o = self._pos.get(p)
        new_object = by_o is None or o not in by_o
        self._spo[s][p][o] = None
        self._pos[p][o][s] = None
        self._osp[o][s][p] = None
        self._size += 1
        self._pred_triples[p] = self._pred_triples.get(p, 0) + 1
        if new_subject:
            self._pred_subjects[p] = self._pred_subjects.get(p, 0) + 1
        if new_object:
            self._pred_objects[p] = self._pred_objects.get(p, 0) + 1
        self._epoch += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        return sum(1 for s, p, o in triples if self.add(s, p, o))

    def remove(self, s: Term, p: Term, o: Term) -> bool:
        """Remove one triple; returns False if it was not present.

        Emptied nested dicts are pruned from all three indexes, so
        wildcard scans and :meth:`count` stay proportional to the live
        triples after heavy add/remove churn.

        Raises:
            FrozenStoreError: if the store has been frozen.
        """
        if self._frozen:
            raise FrozenStoreError(
                "cannot remove from a frozen store; use copy() for a "
                "mutable clone"
            )
        row = self._spo.get(s)
        objs = row.get(p) if row is not None else None
        if objs is None or o not in objs:
            return False
        del objs[o]
        if not objs:
            # s lost its last p-edge: one fewer distinct subject of p.
            self._pred_subjects[p] -= 1
            if not self._pred_subjects[p]:
                del self._pred_subjects[p]
            del row[p]
            if not row:
                del self._spo[s]
        by_o = self._pos[p]
        subjs = by_o[o]
        del subjs[s]
        if not subjs:
            # o is no longer an object of p.
            self._pred_objects[p] -= 1
            if not self._pred_objects[p]:
                del self._pred_objects[p]
            del by_o[o]
            if not by_o:
                del self._pos[p]
        by_s = self._osp[o]
        preds = by_s[s]
        del preds[p]
        if not preds:
            del by_s[s]
            if not by_s:
                del self._osp[o]
        self._pred_triples[p] -= 1
        if not self._pred_triples[p]:
            del self._pred_triples[p]
        self._size -= 1
        self._epoch += 1
        return True

    def bind_prefix(self, prefix: str, base: str) -> None:
        """Register a namespace prefix for serialization."""
        self.prefixes[prefix] = base

    # -- lookup -------------------------------------------------------------------

    def triples(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> Iterator[Triple]:
        """All triples matching the pattern (None/Variable = wildcard)."""
        s, p, o = _as_pattern(s), _as_pattern(p), _as_pattern(o)
        if s is not None:
            if s not in self._spo:
                return
            by_p = self._spo[s]
            if p is not None:
                for obj in by_p.get(p, ()):
                    if o is None or obj == o:
                        yield (s, p, obj)
            else:
                for pred, objs in by_p.items():
                    for obj in objs:
                        if o is None or obj == o:
                            yield (s, pred, obj)
        elif p is not None:
            if p not in self._pos:
                return
            by_o = self._pos[p]
            if o is not None:
                for subj in by_o.get(o, ()):
                    yield (subj, p, o)
            else:
                for obj, subjs in by_o.items():
                    for subj in subjs:
                        yield (subj, p, obj)
        elif o is not None:
            if o not in self._osp:
                return
            for subj, preds in self._osp[o].items():
                for pred in preds:
                    yield (subj, pred, o)
        else:
            for subj, by_p in self._spo.items():
                for pred, objs in by_p.items():
                    for obj in objs:
                        yield (subj, pred, obj)

    def contains(self, s: Term, p: Term, o: Term) -> bool:
        """True if the concrete triple is in the store."""
        return o in self._spo.get(s, {}).get(p, ())

    def predicate_index(self):
        """Live predicate-major view: ``(p, {o: {s: None, ...}})`` pairs.

        Bulk access for single-pass analyzers (OntologyLint streams
        the whole store once and per-triple generator dispatch is the
        dominant cost at that size).  The nested containers are the
        store's own indexes: callers must treat them as read-only.
        """
        return self._pos.items()

    def subject_keys(self):
        """Live read-only view of every subject with outgoing triples.

        Companion to :meth:`predicate_index`: analyzers get the
        distinct-subject set without re-deriving it triple by triple.
        """
        return self._spo.keys()

    def count(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> int:
        """Number of triples matching the pattern.

        Fully-open and single-position patterns are O(1)/O(index-row);
        used by the query planner for selectivity ordering.
        """
        s, p, o = _as_pattern(s), _as_pattern(p), _as_pattern(o)
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, {}).get(s, ()))
        if s is not None:
            return sum(len(v) for v in self._spo.get(s, {}).values())
        if p is not None:
            return sum(len(v) for v in self._pos.get(p, {}).values())
        return sum(len(v) for v in self._osp.get(o, {}).values())

    # -- cardinality statistics ---------------------------------------------------

    def stats(self) -> StoreStats:
        """Snapshot of the incrementally maintained statistics.

        O(#predicates) to copy the per-predicate table; no index scans.
        The snapshot is what the planner's cost model reads and what the
        stats-consistency fuzz suite checks against a from-scratch
        recount.
        """
        return StoreStats(
            size=self._size,
            distinct_subjects=len(self._spo),
            distinct_objects=len(self._osp),
            epoch=self._epoch,
            predicates={
                p: PredicateStats(
                    triples=n,
                    distinct_subjects=self._pred_subjects.get(p, 0),
                    distinct_objects=self._pred_objects.get(p, 0),
                )
                for p, n in self._pred_triples.items()
            },
        )

    def estimate(
        self, s_bound: bool, p: Term | None, o_bound: bool
    ) -> float:
        """O(1) estimated match count for a triple-pattern class.

        ``s_bound``/``o_bound`` say whether the subject/object position
        is bound (to *some* constant — which one does not matter, that
        is the point: the estimate depends only on the pattern's stat
        class); ``p`` is the concrete predicate or ``None`` when the
        predicate position is open.  Unlike :meth:`count`, unbound-
        position estimates never sum index rows — they divide the
        incremental per-predicate counters.
        """
        if p is not None:
            n = self._pred_triples.get(p)
            if n is None:
                return 0.0
            if s_bound and o_bound:
                return 1.0
            if s_bound:
                return n / self._pred_subjects[p]
            if o_bound:
                return n / self._pred_objects[p]
            return float(n)
        if not self._size:
            return 0.0
        if s_bound and o_bound:
            return max(
                1.0, self._size / (len(self._spo) * len(self._osp))
            )
        if s_bound:
            return self._size / len(self._spo)
        if o_bound:
            return self._size / len(self._osp)
        return float(self._size)

    def predicate_count(self) -> int:
        """Number of distinct predicates currently in the store."""
        return len(self._pos)

    def subjects(self, p: Term | None = None, o: Term | None = None
                 ) -> Iterator[Term]:
        """Distinct subjects of triples matching ``(?, p, o)``."""
        seen: set[Term] = set()
        for s, _, _ in self.triples(None, p, o):
            if s not in seen:
                seen.add(s)
                yield s

    def objects(self, s: Term | None = None, p: Term | None = None
                ) -> Iterator[Term]:
        """Distinct objects of triples matching ``(s, p, ?)``."""
        seen: set[Term] = set()
        for _, _, o in self.triples(s, p, None):
            if o not in seen:
                seen.add(o)
                yield o

    def predicates(self) -> Iterator[Term]:
        """All distinct predicates in the store."""
        return iter(self._pos.keys())

    def value(self, s: Term | None = None, p: Term | None = None,
              o: Term | None = None) -> Term | None:
        """The single term completing the pattern, or None.

        Exactly one of the three positions must be left open.
        """
        open_positions = [x is None for x in (s, p, o)]
        if sum(open_positions) != 1:
            raise ValueError("value() requires exactly one open position")
        for triple in self.triples(s, p, o):
            return triple[open_positions.index(True)]
        return None

    # -- pythonic protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        return self.contains(s, p, o)

    def copy(self) -> "TripleStore":
        """A shallow copy (terms are immutable, so this is a full copy).

        The clone is always mutable, even when the source is frozen.
        """
        clone = TripleStore(self.triples())
        clone.prefixes = dict(self.prefixes)
        return clone
