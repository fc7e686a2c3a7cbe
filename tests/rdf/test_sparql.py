"""Unit tests for the SPARQL subset parser and evaluator."""

import pytest

from repro.errors import SPARQLSyntaxError
from repro.rdf.sparql import parse_sparql, sparql_select
from repro.rdf.terms import IRI, Literal
from repro.rdf.turtle import parse_turtle


DATA = """
@prefix kb: <http://repro.example/kb/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

kb:Delaware_Park kb:instanceOf kb:Place ;
    rdfs:label "Delaware Park" ;
    kb:near kb:Forest_Hotel ;
    kb:rating 4.5 .
kb:Buffalo_Zoo kb:instanceOf kb:Place ;
    rdfs:label "Buffalo Zoo" ;
    kb:near kb:Forest_Hotel ;
    kb:rating 4.2 .
kb:Albright_Knox kb:instanceOf kb:Museum ;
    rdfs:label "Albright-Knox Art Gallery" ;
    kb:near kb:Forest_Hotel ;
    kb:rating 4.7 .
kb:Niagara_Falls kb:instanceOf kb:Place ;
    rdfs:label "Niagara Falls" ;
    kb:rating 4.9 .
kb:Museum kb:subClassOf kb:Place .
"""

PREFIX = "PREFIX kb: <http://repro.example/kb/> " \
         "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "


@pytest.fixture(scope="module")
def store():
    return parse_turtle(DATA)


def kb(name):
    return IRI("http://repro.example/kb/" + name)


class TestBasicSelect:
    def test_single_pattern(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE { ?x kb:instanceOf kb:Place }
        """)
        assert {r["x"] for r in rows} == {
            kb("Delaware_Park"), kb("Buffalo_Zoo"), kb("Niagara_Falls")
        }

    def test_join_two_patterns(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE {
                ?x kb:instanceOf kb:Place .
                ?x kb:near kb:Forest_Hotel
            }
        """)
        assert {r["x"] for r in rows} == {
            kb("Delaware_Park"), kb("Buffalo_Zoo")
        }

    def test_select_star(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT * WHERE { ?x kb:near ?y }
        """)
        assert all({"x", "y"} <= set(r) for r in rows)
        assert len(rows) == 3

    def test_projection(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?label WHERE {
                ?x kb:instanceOf kb:Museum . ?x rdfs:label ?label
            }
        """)
        assert rows == [{"label": Literal("Albright-Knox Art Gallery")}]

    def test_no_match_returns_empty(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE { ?x kb:instanceOf kb:Restaurant }
        """)
        assert rows == []

    def test_variable_predicate(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?p WHERE { kb:Delaware_Park ?p kb:Place }
        """)
        assert rows == [{"p": kb("instanceOf")}]

    def test_shared_variable_same_binding(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE { ?x kb:near ?x }
        """)
        assert rows == []


class TestFilters:
    def test_numeric_comparison(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE {
                ?x kb:rating ?r . FILTER(?r > 4.4)
            }
        """)
        assert {r["x"] for r in rows} == {
            kb("Delaware_Park"), kb("Albright_Knox"), kb("Niagara_Falls")
        }

    def test_boolean_connectives(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE {
                ?x kb:rating ?r . FILTER(?r > 4.4 && ?r < 4.8)
            }
        """)
        assert {r["x"] for r in rows} == {
            kb("Delaware_Park"), kb("Albright_Knox")
        }

    def test_negation(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE {
                ?x kb:instanceOf kb:Place . FILTER(!(?x = kb:Niagara_Falls))
            }
        """)
        assert kb("Niagara_Falls") not in {r["x"] for r in rows}

    def test_contains_function(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE {
                ?x rdfs:label ?l . FILTER(CONTAINS(LCASE(STR(?l)), "zoo"))
            }
        """)
        assert [r["x"] for r in rows] == [kb("Buffalo_Zoo")]

    def test_regex_function(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE {
                ?x rdfs:label ?l . FILTER(REGEX(STR(?l), "^Buffalo"))
            }
        """)
        assert [r["x"] for r in rows] == [kb("Buffalo_Zoo")]

    def test_strstarts(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x WHERE {
                ?x rdfs:label ?l . FILTER(STRSTARTS(STR(?l), "Niagara"))
            }
        """)
        assert [r["x"] for r in rows] == [kb("Niagara_Falls")]


class TestSolutionModifiers:
    def test_order_by_desc_limit(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?x ?r WHERE { ?x kb:rating ?r }
            ORDER BY DESC(?r) LIMIT 2
        """)
        assert [r["x"] for r in rows] == [
            kb("Niagara_Falls"), kb("Albright_Knox")
        ]

    def test_order_by_ascending(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?r WHERE { ?x kb:rating ?r } ORDER BY ?r
        """)
        values = [r["r"].value for r in rows]
        assert values == sorted(values)

    def test_offset(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT ?r WHERE { ?x kb:rating ?r } ORDER BY ?r LIMIT 2 OFFSET 1
        """)
        assert [r["r"].value for r in rows] == [4.5, 4.7]

    def test_distinct(self, store):
        rows = sparql_select(store, PREFIX + """
            SELECT DISTINCT ?c WHERE { ?x kb:instanceOf ?c }
        """)
        assert len(rows) == 2


class TestParserErrors:
    def test_missing_where(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql("SELECT ?x { ?x ?p ?o }")

    def test_unterminated_group(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql("SELECT ?x WHERE { ?x ?p ?o")

    def test_no_variables(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql("SELECT WHERE { ?x ?p ?o }")

    def test_undeclared_prefix(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql("SELECT ?x WHERE { ?x kb:p ?o }")

    def test_trailing_garbage(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql("SELECT ?x WHERE { ?x ?p ?o } BANANA ?x")

    def test_dollar_variables_accepted(self):
        query = parse_sparql("SELECT $x WHERE { $x $p $o }")
        assert query.variables == ["x"]


class TestStreaming:
    """LIMIT/OFFSET slice the solution stream; joins never recurse."""

    def test_limit_offset_window_matches_unsliced_run(self, store):
        base = PREFIX + "SELECT ?x ?r WHERE { ?x kb:rating ?r }"
        full = sparql_select(store, base)
        window = sparql_select(store, base + " LIMIT 2 OFFSET 1")
        # No ORDER BY: the window is a contiguous slice of the same
        # stream (same evaluator, same enumeration order).
        assert window == full[1:3]

    def test_limit_stops_the_join_early(self, store):
        probes = []
        original = type(store).triples

        def counting(self, s=None, p=None, o=None):
            for t in original(self, s, p, o):
                probes.append(t)
                yield t

        query = PREFIX + "SELECT ?x WHERE { ?x kb:rating ?r } LIMIT 1"
        try:
            type(store).triples = counting
            rows = sparql_select(store, query)
        finally:
            type(store).triples = original
        assert len(rows) == 1
        # Four entities carry ratings; an eager evaluator would probe
        # all of them before slicing.
        assert len(probes) < 4

    def test_distinct_dedups_incrementally(self, store):
        query = (PREFIX +
                 "SELECT DISTINCT ?t WHERE { ?x kb:instanceOf ?t } "
                 "LIMIT 1")
        rows = sparql_select(store, query)
        assert len(rows) == 1
        assert rows[0]["t"] in (kb("Place"), kb("Museum"))

    def test_order_by_still_sees_every_row(self, store):
        query = (PREFIX + "SELECT ?x ?r WHERE { ?x kb:rating ?r } "
                 "ORDER BY DESC(?r) LIMIT 1")
        rows = sparql_select(store, query)
        assert rows[0]["x"] == kb("Niagara_Falls")

    def test_hundred_pattern_chain_needs_no_recursion(self):
        # One pattern per joined variable used to recurse once per
        # pattern; the explicit stack must evaluate a 100-pattern
        # chain even under a recursion limit the old evaluator would
        # have blown through.
        import sys

        from repro.rdf.sparql import TriplePattern, iter_bgp
        from repro.rdf.store import TripleStore
        from repro.rdf.terms import Variable

        n = 100
        nxt = IRI("http://x/next")
        store = TripleStore()
        for i in range(n + 1):
            store.add(IRI(f"http://x/n{i}"), nxt, IRI(f"http://x/n{i+1}"))
        chain = [
            TriplePattern(Variable(f"v{i}"), nxt, Variable(f"v{i+1}"))
            for i in range(n)
        ]
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(90)
            solutions = list(iter_bgp(store, chain))
            assert len(solutions) == 2
            assert all(len(s) == n + 1 for s in solutions)
        finally:
            sys.setrecursionlimit(limit)
