"""Property-based tests: the SPARQL evaluator vs. a naive reference.

The production evaluator joins patterns in selectivity order with filter
push-down; the reference implementation (:mod:`tests.rdf.reference`)
does the dumbest possible thing (enumerate all triples per pattern,
nested-loop join, filter at the end).  On random stores and random basic
graph patterns the two must agree exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf.sparql import FilterExpr, TriplePattern, iter_bgp
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Variable
from tests.rdf.reference import canon, reference_bgp


IRIS = [IRI(f"http://x/{name}") for name in "abcdefg"]
PREDICATES = [IRI(f"http://x/p{i}") for i in range(3)]

triples = st.tuples(
    st.sampled_from(IRIS), st.sampled_from(PREDICATES),
    st.sampled_from(IRIS),
)

terms = st.one_of(
    st.sampled_from(IRIS),
    st.sampled_from([Variable(v) for v in "uvwxyz"]),
)
pattern_predicates = st.one_of(
    st.sampled_from(PREDICATES),
    st.sampled_from([Variable(v) for v in "pq"]),
)
patterns = st.builds(TriplePattern, terms, pattern_predicates, terms)


class TestEvaluatorAgainstReference:
    @given(st.lists(triples, max_size=25),
           st.lists(patterns, min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_bgp_join_agrees_with_reference(self, data, bgp):
        store = TripleStore(data)
        fast = list(iter_bgp(store, bgp))
        slow = reference_bgp(store, bgp)
        assert canon(fast) == canon(slow)

    @given(st.lists(triples, max_size=25),
           st.lists(patterns, min_size=1, max_size=2),
           st.sampled_from(IRIS))
    @settings(max_examples=60, deadline=None)
    def test_equality_filter_agrees(self, data, bgp, pinned):
        store = TripleStore(data)
        # FILTER(?u = <pinned>) — only applies when ?u is used.
        used = set()
        for p in bgp:
            used |= p.variables()
        if "u" not in used:
            return
        flt = FilterExpr("cmp", (
            "=", FilterExpr("var", ("u",)), FilterExpr("term", (pinned,)),
        ))
        fast = list(iter_bgp(store, bgp, filters=[flt]))
        slow = [
            s for s in reference_bgp(store, bgp) if s.get("u") == pinned
        ]
        assert canon(fast) == canon(slow)

    @given(st.lists(triples, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_unsatisfiable_pattern_is_empty(self, data):
        store = TripleStore(data)
        missing = IRI("http://x/never-used")
        bgp = [TriplePattern(Variable("s"), missing, Variable("o"))]
        assert list(iter_bgp(store, bgp)) == []

    @given(st.lists(triples, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_fully_open_pattern_returns_every_triple(self, data):
        store = TripleStore(data)
        bgp = [TriplePattern(Variable("s"), Variable("p"), Variable("o"))]
        assert len(list(iter_bgp(store, bgp))) == len(store)
