"""Property-based tests: compiled plans vs. a naive reference join, and
store statistics vs. recount-from-scratch.

The cost-based planner compiles specialized per-step closures and joins
in a statistics-chosen order; the reference evaluator
(:mod:`tests.rdf.reference`) nested-loops over every triple in pattern
order.  On random stores and random BGPs (with and without initial
bindings) the two must produce the same solution multiset.
Separately, the incrementally-maintained statistics must equal a
recount from the raw indexes after arbitrary add/remove churn.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf.planner import QueryPlanner, TriplePattern, iter_bgp
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


class TestCompiledAgainstReference:
    @given(st.lists(triples, max_size=25),
           st.lists(patterns, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_bgp_join_agrees(self, data, bgp):
        store = TripleStore(data)
        compiled = list(QueryPlanner().solutions(store, bgp))
        assert canon(compiled) == canon(reference_bgp(store, bgp))

    @given(st.lists(triples, max_size=25),
           st.lists(patterns, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_no_solution_repeats(self, data, bgp):
        # The store keeps each triple once, so no BGP can yield the
        # same solution twice; consumers rely on that and skip dedup.
        store = TripleStore(data)
        solutions = list(iter_bgp(store, bgp, planner=QueryPlanner()))
        keys = [frozenset(sol.items()) for sol in solutions]
        assert len(set(keys)) == len(keys)

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

    @given(st.lists(triples, max_size=25),
           st.lists(patterns, min_size=1, max_size=3),
           st.sampled_from(IRIS))
    @settings(max_examples=80, deadline=None)
    def test_initial_bindings_agree(self, data, bgp, pinned):
        store = TripleStore(data)
        initial = {"u": pinned}
        compiled = list(
            QueryPlanner().solutions(store, bgp, initial=initial)
        )
        expected = reference_bgp(store, bgp, initial=initial)
        assert canon(compiled) == canon(expected)

    @given(st.lists(triples, min_size=5, max_size=30),
           st.lists(patterns, min_size=1, max_size=3),
           st.lists(triples, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_cached_plan_survives_mutation(self, data, bgp, churn):
        # Warm the cache, mutate the store, re-run: the invalidated
        # plan must be rebuilt, never silently reused.
        store = TripleStore(data)
        planner = QueryPlanner()
        list(planner.solutions(store, bgp))
        for s, p, o in churn:
            if not store.remove(s, p, o):
                store.add(s, p, o)
        compiled = list(planner.solutions(store, bgp))
        assert canon(compiled) == canon(reference_bgp(store, bgp))


def recount(store):
    """Per-predicate statistics recomputed from the raw indexes."""
    stats = {}
    for p, by_o in store._pos.items():
        triples = sum(len(subjects) for subjects in by_o.values())
        subjects = {s for subjects in by_o.values() for s in subjects}
        stats[p] = (triples, len(subjects), len(by_o))
    return stats


class TestStatsConsistency:
    @given(st.lists(triples, max_size=40),
           st.lists(triples, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_stats_match_recount_after_churn(self, adds, removes):
        store = TripleStore()
        for s, p, o in adds:
            store.add(s, p, o)
        for s, p, o in removes:
            store.remove(s, p, o)
        snap = store.stats()
        assert snap.size == len(store)
        assert snap.distinct_subjects == len(store._spo)
        assert snap.distinct_objects == len(store._osp)
        expected = recount(store)
        got = {
            p: (ps.triples, ps.distinct_subjects, ps.distinct_objects)
            for p, ps in snap.predicates.items()
        }
        assert got == expected

    @given(st.lists(triples, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_epoch_strictly_tracks_mutations(self, ops):
        store = TripleStore()
        epoch = store.epoch
        for s, p, o in ops:
            changed = (
                store.remove(s, p, o) if (s, p, o) in store
                else store.add(s, p, o)
            )
            assert changed
            assert store.epoch == epoch + 1
            epoch = store.epoch

    @given(st.lists(triples, max_size=30),
           st.sampled_from(PREDICATES))
    @settings(max_examples=80, deadline=None)
    def test_estimate_bounds(self, data, p):
        # Estimates are sanity-bounded: never negative, exact for
        # fully-unbound per-predicate patterns, zero for absent ones.
        store = TripleStore(data)
        n = store.count(None, p, None)
        assert store.estimate(False, p, False) == float(n)
        if n == 0:
            assert store.estimate(True, p, True) == 0.0
        else:
            for s_bound in (False, True):
                for o_bound in (False, True):
                    est = store.estimate(s_bound, p, o_bound)
                    assert 0.0 < est <= float(n)
