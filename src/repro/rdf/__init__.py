"""RDF substrate: data model, triple store, Turtle I/O, BGP evaluation.

OASSIS-QL queries are evaluated against an RDF ontology (paper
Section 2.1); this package provides the store and query machinery the
paper gets from an off-the-shelf RDF stack.

Typical use::

    from repro.rdf import IRI, TriplePattern, Variable, iter_bgp
    from repro.rdf import parse_turtle

    store = parse_turtle(open("geo.ttl").read())
    kb = "http://repro.example/kb/"
    pattern = TriplePattern(
        Variable("x"), IRI(kb + "instanceOf"), IRI(kb + "Place")
    )
    rows = list(iter_bgp(store, [pattern]))
"""

from repro.rdf.terms import (
    BNode,
    IRI,
    Literal,
    Namespace,
    Term,
    Triple,
    Variable,
)
from repro.rdf.store import PredicateStats, StoreStats, TripleStore
from repro.rdf.turtle import parse_turtle, serialize_turtle
from repro.rdf.planner import (
    PlanExplain,
    QueryPlanner,
    TriplePattern,
    default_planner,
    iter_bgp,
)
from repro.rdf.ontology import EntityMatch, Ontology

__all__ = [
    "IRI",
    "Literal",
    "BNode",
    "Variable",
    "Term",
    "Triple",
    "Namespace",
    "TripleStore",
    "PredicateStats",
    "StoreStats",
    "parse_turtle",
    "serialize_turtle",
    "TriplePattern",
    "iter_bgp",
    "QueryPlanner",
    "PlanExplain",
    "default_planner",
    "Ontology",
    "EntityMatch",
]
