"""RDF substrate: data model, triple store, Turtle I/O, SPARQL subset.

OASSIS-QL queries are evaluated against an RDF ontology (paper
Section 2.1); this package provides the store and query machinery the
paper gets from an off-the-shelf RDF stack.

Typical use::

    from repro.rdf import TripleStore, parse_turtle, sparql_select

    store = parse_turtle(open("geo.ttl").read())
    rows = sparql_select(store, '''
        SELECT ?x WHERE { ?x <http://repro.example/kb/instanceOf>
                             <http://repro.example/kb/Place> }
    ''')
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
from repro.rdf.sparql import (
    SelectQuery,
    TriplePattern,
    iter_bgp,
    parse_sparql,
    sparql_select,
)
from repro.rdf.planner import PlanExplain, QueryPlanner, default_planner
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
    "SelectQuery",
    "TriplePattern",
    "parse_sparql",
    "sparql_select",
    "iter_bgp",
    "QueryPlanner",
    "PlanExplain",
    "default_planner",
    "Ontology",
    "EntityMatch",
]
