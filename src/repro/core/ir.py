"""Intermediate representation shared by the query-part generators.

Both the general query generator (:mod:`repro.freya`) and the individual
triple creator (:mod:`repro.core.triples`) emit *proto-triples* whose
terms may be:

* :class:`NodeTerm` — a reference to a dependency-graph node whose final
  rendering (query variable vs. entity IRI) the Query Composition module
  decides (paper Section 2.6: "every reference to a particular term in
  the original sentence is represented by an occurrence of the same
  variable");
* a concrete RDF term (:class:`~repro.rdf.terms.IRI` /
  :class:`~repro.rdf.terms.Literal`);
* :data:`~repro.oassisql.ast.ANYTHING` — the ``[]`` wildcard.

Each proto-triple records its origin (general or individual) and the
graph nodes it was derived from, which is what lets composition delete
general triples that FREyA wrongly produced for detected IXs (paper
Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.nlp.graph import DepNode
from repro.oassisql.ast import Anything
from repro.rdf.terms import IRI, Literal

__all__ = ["NodeTerm", "ProtoTerm", "ProtoTriple"]


@dataclass(frozen=True, slots=True)
class NodeTerm:
    """A reference to a sentence token that becomes a variable or IRI.

    ``entity`` optionally pins the node to an ontology entity (set by
    the general query generator after entity linking / disambiguation);
    composition renders pinned nodes as IRIs and unpinned ones as
    variables.
    """

    node: DepNode
    entity: IRI | None = None

    @property
    def index(self) -> int:
        return self.node.index

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.entity is not None:
            return f"{self.node.text}->{self.entity.local_name}"
        return f"?{self.node.text}-{self.node.index}"


ProtoTerm = Union[NodeTerm, IRI, Literal, Anything]


@dataclass(frozen=True)
class ProtoTriple:
    """A triple whose node references are not yet resolved.

    Attributes:
        s, p, o: proto-terms.
        origin: ``"general"`` (from the query generator, goes to WHERE)
            or ``"individual"`` (from the triple creator, goes to
            SATISFYING).
        source_nodes: the graph nodes this triple was derived from —
            the overlap test for composition's deletion step.
        unit: for individual triples, the id of the IX unit the triple
            belongs to; triples of one unit share a SATISFYING subclause.
    """

    s: ProtoTerm
    p: ProtoTerm
    o: ProtoTerm
    origin: str
    source_nodes: frozenset[int] = frozenset()
    unit: int = -1

    def terms(self) -> tuple[ProtoTerm, ProtoTerm, ProtoTerm]:
        return (self.s, self.p, self.o)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.origin}] {self.s} {self.p} {self.o}"
