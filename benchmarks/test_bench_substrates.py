"""E10: micro-benchmarks of the from-scratch substrates.

Not a paper experiment — throughput sanity checks for the components
the paper outsources (Stanford Parser, RDF stack): the triple store's
indexed lookups, BGP evaluation through the query planner, the NL
parser, and the OASSIS-QL round trip.
"""

import pytest

from repro.data.corpus import CORPUS
from repro.nlp import parse
from repro.oassisql import parse_oassisql, print_oassisql
from repro.rdf.ontology import KB
from repro.rdf.planner import TriplePattern, iter_bgp
from repro.rdf.terms import Variable

FIGURE1_QUERY = next(q for q in CORPUS if q.id == "travel-01").gold_query

#: ``$x instanceOf Place . $x near Forest_Hotel,_Buffalo,_NY`` — the
#: Figure-1 WHERE clause.
FIGURE1_BGP = [
    TriplePattern(Variable("x"), KB.instanceOf, KB.Place),
    TriplePattern(Variable("x"), KB.near, KB["Forest_Hotel,_Buffalo,_NY"]),
]


def test_bench_store_lookup(benchmark, ontology):
    store = ontology.store
    place = KB.Place

    def lookups():
        total = 0
        for _ in range(100):
            total += store.count(None, KB.instanceOf, place)
        return total

    assert benchmark(lookups) > 0


def test_bench_bgp_join(benchmark, ontology):
    def join():
        return list(iter_bgp(ontology.store, FIGURE1_BGP))

    assert len(benchmark(join)) == 6


def test_bench_nl_parse(benchmark):
    sentences = [q.text for q in CORPUS if q.supported]

    def parse_all():
        return [parse(s) for s in sentences]

    graphs = benchmark(parse_all)
    assert all(g.head is not None for g in graphs)


def test_bench_oassisql_round_trip(benchmark):
    def round_trip():
        return print_oassisql(parse_oassisql(FIGURE1_QUERY))

    assert benchmark(round_trip) == FIGURE1_QUERY


def test_bench_entity_lookup(benchmark, ontology):
    phrases = ["Buffalo", "Forest Hotel", "Delaware Park", "places",
               "thrill ride", "camera", "oatmeal"]

    def lookup_all():
        return [ontology.lookup(p) for p in phrases]

    results = benchmark(lookup_all)
    assert all(results[i] for i in (0, 1, 2, 3, 4))
