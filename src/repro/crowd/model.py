"""Fact-sets and crowd ground truth.

A *fact-set* (paper Section 2.1) is the unit the crowd is asked about: a
set of ground triples describing a single habit or opinion, e.g.
``{[] visit Delaware_Park. [] in Fall}`` or
``{Delaware_Park hasLabel "interesting"}``.  Its *support* is "a habit
frequency or a level of agreement to a statement, aggregated from the
answers of several crowd members".

:class:`GroundTruth` maps fact-sets to their true support — the latent
quantity the simulated crowd's answers are sampled around, and the
reference the evaluation harness scores against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.oassisql.ast import Anything, QueryTriple
from repro.rdf.ontology import Ontology
from repro.rdf.terms import IRI, Literal

__all__ = ["FactSet", "GroundTruth", "verbalize_fact_set"]


def _term_key(term) -> str:
    if isinstance(term, Anything):
        return "[]"
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, Literal):
        return f'"{term.value}"'
    raise TypeError(f"fact-set terms must be ground, got {term!r}")


@dataclass(frozen=True)
class FactSet:
    """A canonical, hashable set of ground triples.

    Build one from OASSIS-QL triples whose variables have been bound;
    only IRIs, literals and ``[]`` may remain.
    """

    triples: tuple[QueryTriple, ...]

    def __post_init__(self):
        keyed = sorted(
            ((tuple(_term_key(x) for x in t.terms()), t)
             for t in self.triples),
            key=lambda pair: pair[0],
        )
        object.__setattr__(self, "triples", tuple(t for _, t in keyed))
        # Built once; an attribute, not a field, so repr/fields() skip it.
        object.__setattr__(
            self, "_key", " & ".join(" ".join(k) for k, _ in keyed)
        )

    def key(self) -> str:
        """A stable string key (used for seeding and ground truth)."""
        return self._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __eq__(self, other) -> bool:
        return isinstance(other, FactSet) and self._key == other._key

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return self.key()


@dataclass
class GroundTruth:
    """True support per fact-set, with a default for unlisted ones.

    The default models the long tail: most arbitrary habit patterns have
    a small but nonzero support in a real crowd.
    """

    supports: dict[FactSet, float] = field(default_factory=dict)
    default: float = 0.02

    def support(self, fact_set: FactSet) -> float:
        return self.supports.get(fact_set, self.default)

    def set(self, fact_set: FactSet, support: float) -> None:
        if not 0.0 <= support <= 1.0:
            raise ValueError(f"support must be in [0, 1], got {support}")
        self.supports[fact_set] = support

    def __len__(self) -> int:
        return len(self.supports)


def verbalize_fact_set(
    fact_set: FactSet, ontology: Ontology | None = None
) -> str:
    """Render a fact-set as the crowd-task question a member would see.

    Habit fact-sets ("[] visit X [& [] in Fall]") become "How often do
    you visit X (in Fall)?"; opinion fact-sets ("X hasLabel L") become
    "Would you say that X is L?".  This mirrors the tasks the OASSIS UI
    generates in the demo's second stage.
    """
    def name(term) -> str:
        if isinstance(term, Anything):
            return "you"
        if isinstance(term, IRI):
            if ontology is not None:
                return ontology.label_of(term)
            return term.local_name.replace("_", " ")
        return str(term)

    opinion = next(
        (t for t in fact_set.triples
         if isinstance(t.p, IRI) and t.p.local_name == "hasLabel"),
        None,
    )
    if opinion is not None:
        return (
            f"Would you say that {name(opinion.s)} is "
            f"\"{opinion.o}\"?"
        )

    prepositions = {"in", "on", "at", "for", "during", "with", "to"}
    habit_triples = [
        t for t in fact_set.triples if isinstance(t.s, Anything)
    ]
    main = next(
        (t for t in habit_triples
         if isinstance(t.p, IRI) and t.p.local_name not in prepositions),
        habit_triples[0] if habit_triples else fact_set.triples[0],
    )
    verb = main.p.local_name if isinstance(main.p, IRI) else str(main.p)
    parts = [f"How often do you {verb} {name(main.o)}"]
    for t in fact_set.triples:
        if t is main:
            continue
        prep = t.p.local_name if isinstance(t.p, IRI) else str(t.p)
        parts.append(f"{prep} {name(t.o)}")
    return " ".join(parts) + "?"
