"""Tests for the cost-based query planner and its plan cache."""

import sys

import pytest

from repro.rdf.planner import (
    PlanExplain,
    QueryPlanner,
    TriplePattern,
    default_planner,
    iter_bgp,
    query_shape,
)
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Literal, Variable
from repro.rdf.turtle import parse_turtle
from tests.rdf.reference import canon, reference_bgp


KB = "http://x/"
TYPE, NEAR, LABEL = IRI(KB + "type"), IRI(KB + "near"), IRI(KB + "label")
PLACE = IRI(KB + "Place")


def iri(name):
    return IRI(KB + name)


@pytest.fixture
def store():
    s = TripleStore()
    for i in range(12):
        s.add(iri(f"place{i}"), TYPE, PLACE)
        s.add(iri(f"place{i}"), NEAR, iri(f"place{(i + 1) % 12}"))
        s.add(iri(f"place{i}"), LABEL, Literal(f"Place {i}"))
    s.add(iri("hotel"), TYPE, iri("Hotel"))
    s.add(iri("hotel"), NEAR, iri("place0"))
    return s


BGP = [
    TriplePattern(Variable("x"), TYPE, PLACE),
    TriplePattern(Variable("x"), NEAR, Variable("y")),
    TriplePattern(Variable("y"), LABEL, Variable("l")),
]


class TestQueryShape:
    def test_constants_abstract_to_stat_class(self):
        a = query_shape([TriplePattern(Variable("x"), TYPE, PLACE)])
        b = query_shape(
            [TriplePattern(Variable("z"), TYPE, iri("Hotel"))]
        )
        assert a == b

    def test_predicate_identity_is_part_of_the_shape(self):
        a = query_shape([TriplePattern(Variable("x"), TYPE, PLACE)])
        b = query_shape([TriplePattern(Variable("x"), NEAR, PLACE)])
        assert a != b

    def test_variable_names_canonicalize(self):
        a = query_shape([
            TriplePattern(Variable("x"), NEAR, Variable("y")),
            TriplePattern(Variable("y"), LABEL, Variable("l")),
        ])
        b = query_shape([
            TriplePattern(Variable("u"), NEAR, Variable("v")),
            TriplePattern(Variable("v"), LABEL, Variable("w")),
        ])
        assert a == b

    def test_join_structure_differs(self):
        joined = query_shape([
            TriplePattern(Variable("x"), NEAR, Variable("y")),
            TriplePattern(Variable("y"), LABEL, Variable("l")),
        ])
        cartesian = query_shape([
            TriplePattern(Variable("x"), NEAR, Variable("y")),
            TriplePattern(Variable("z"), LABEL, Variable("l")),
        ])
        assert joined != cartesian

    def test_filters_and_initial_bindings_contribute(self):
        # The shape key is (patterns, initial): initially-bound
        # variables are the only non-pattern part of it.
        bgp = [TriplePattern(Variable("x"), NEAR, Variable("y"))]
        assert query_shape(bgp) != query_shape(bgp, initial_vars=["x"])
        assert query_shape(bgp, initial_vars=["x"]) != query_shape(
            bgp, initial_vars=["y"]
        )
        # Initial bindings no pattern mentions do not change the shape.
        assert query_shape(bgp) == query_shape(bgp, initial_vars=["z"])


class TestPlanCache:
    def test_hit_on_same_shape_different_constants(self, store):
        planner = QueryPlanner()
        list(planner.solutions(store, BGP))
        other = [
            TriplePattern(Variable("a"), TYPE, iri("Hotel")),
            TriplePattern(Variable("a"), NEAR, Variable("b")),
            TriplePattern(Variable("b"), LABEL, Variable("c")),
        ]
        list(planner.solutions(store, other))
        snap = planner.snapshot()
        assert (snap.hits, snap.misses, snap.compiled) == (1, 1, 1)
        assert snap.hit_rate == 0.5

    def test_mutation_epoch_invalidates(self, store):
        planner = QueryPlanner()
        list(planner.solutions(store, BGP))
        store.add(iri("extra"), TYPE, PLACE)
        list(planner.solutions(store, BGP))
        snap = planner.snapshot()
        assert snap.invalidations == 1
        assert snap.compiled == 2
        # The re-planned entry is fresh again.
        list(planner.solutions(store, BGP))
        assert planner.snapshot().hits == 1

    def test_remove_also_bumps_the_epoch(self, store):
        planner = QueryPlanner()
        list(planner.solutions(store, BGP))
        store.remove(iri("hotel"), NEAR, iri("place0"))
        list(planner.solutions(store, BGP))
        assert planner.snapshot().invalidations == 1

    def test_lru_bound(self, store):
        planner = QueryPlanner(cache_size=2)
        shapes = [
            [TriplePattern(Variable("x"), p, Variable("y"))]
            for p in (TYPE, NEAR, LABEL)
        ]
        for bgp in shapes:
            list(planner.solutions(store, bgp))
        snap = planner.snapshot()
        assert snap.cache_size == 2
        assert snap.cache_capacity == 2
        # The first shape was evicted: re-running it misses again.
        list(planner.solutions(store, shapes[0]))
        assert planner.snapshot().misses == 4

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(ValueError):
            QueryPlanner(cache_size=0)

    def test_clear_drops_plans_but_keeps_counters(self, store):
        planner = QueryPlanner()
        list(planner.solutions(store, BGP))
        planner.clear()
        snap = planner.snapshot()
        assert snap.cache_size == 0
        assert snap.misses == 1
        list(planner.solutions(store, BGP))
        assert planner.snapshot().misses == 2

    def test_stores_do_not_share_plans(self, store):
        planner = QueryPlanner()
        other = TripleStore()
        other.add(iri("a"), TYPE, PLACE)
        other.add(iri("a"), NEAR, iri("b"))
        other.add(iri("b"), LABEL, Literal("B"))
        list(planner.solutions(store, BGP))
        list(planner.solutions(other, BGP))
        assert planner.snapshot().misses == 2

    def test_default_planner_is_shared(self):
        assert default_planner() is default_planner()


class TestPlanQuality:
    def test_selective_pattern_goes_first(self, store):
        # type=Hotel matches one triple, the open NEAR pattern 13 —
        # the plan must probe the hotel first.
        planner = QueryPlanner()
        bgp = [
            TriplePattern(Variable("x"), NEAR, Variable("y")),
            TriplePattern(Variable("x"), TYPE, iri("Hotel")),
        ]
        bound = planner.plan(store, bgp)
        assert bound.plan.order[0] == 1

    def test_bound_variable_propagation(self, store):
        # After placing the type pattern, NEAR probes with ?x bound —
        # its estimate must be per-subject, not the full predicate.
        planner = QueryPlanner()
        bound = planner.plan(store, BGP)
        first = bound.plan.order[0]
        assert BGP[first].variables() == {"x"}
        assert all(est >= 1.0 for est in bound.plan.estimates[:1])

    def test_initial_bindings(self, store):
        planner = QueryPlanner()
        initial = {"x": iri("place3")}
        fast = list(planner.solutions(store, BGP, initial=initial))
        slow = reference_bgp(store, BGP, initial=initial)
        assert canon(fast) == canon(slow)
        assert len(fast) == 1

    def test_duplicate_variable_pattern(self, store):
        store.add(iri("loop"), NEAR, iri("loop"))
        bgp = [TriplePattern(Variable("x"), NEAR, Variable("x"))]
        planner = QueryPlanner()
        fast = list(planner.solutions(store, bgp))
        assert canon(fast) == canon(reference_bgp(store, bgp))
        assert fast == [{"x": iri("loop")}]

    def test_variable_predicate(self, store):
        bgp = [TriplePattern(iri("hotel"), Variable("p"), Variable("o"))]
        planner = QueryPlanner()
        fast = list(planner.solutions(store, bgp))
        assert canon(fast) == canon(reference_bgp(store, bgp))

    def test_empty_bgp_yields_initial_solution(self, store):
        planner = QueryPlanner()
        assert list(planner.solutions(store, [])) == [{}]


BUFFALO = """
@prefix kb: <http://repro.example/kb/> .

kb:Delaware_Park kb:instanceOf kb:Place ; kb:near kb:Forest_Hotel .
kb:Buffalo_Zoo kb:instanceOf kb:Place ; kb:near kb:Forest_Hotel .
kb:Albright_Knox kb:instanceOf kb:Museum ; kb:near kb:Forest_Hotel .
kb:Niagara_Falls kb:instanceOf kb:Place .
"""


def kb(name):
    return IRI("http://repro.example/kb/" + name)


class TestBgpSemantics:
    """What a WHERE clause means, evaluated through :func:`iter_bgp`."""

    @pytest.fixture(scope="class")
    def buffalo(self):
        return parse_turtle(BUFFALO)

    def test_single_pattern(self, buffalo):
        bgp = [TriplePattern(Variable("x"), kb("instanceOf"), kb("Place"))]
        assert {r["x"] for r in iter_bgp(buffalo, bgp)} == {
            kb("Delaware_Park"), kb("Buffalo_Zoo"), kb("Niagara_Falls")
        }

    def test_join_two_patterns(self, buffalo):
        rows = list(iter_bgp(buffalo, [
            TriplePattern(Variable("x"), kb("instanceOf"), kb("Place")),
            TriplePattern(Variable("x"), kb("near"), kb("Forest_Hotel")),
        ]))
        assert {r["x"] for r in rows} == {
            kb("Delaware_Park"), kb("Buffalo_Zoo")
        }

    def test_no_match_returns_empty(self, buffalo):
        bgp = [
            TriplePattern(Variable("x"), kb("instanceOf"), kb("Restaurant"))
        ]
        assert list(iter_bgp(buffalo, bgp)) == []

    def test_variable_predicate(self, buffalo):
        bgp = [
            TriplePattern(kb("Delaware_Park"), Variable("p"), kb("Place"))
        ]
        assert list(iter_bgp(buffalo, bgp)) == [{"p": kb("instanceOf")}]

    def test_shared_variable_same_binding(self, buffalo):
        bgp = [TriplePattern(Variable("x"), kb("near"), Variable("x"))]
        assert list(iter_bgp(buffalo, bgp)) == []

    def test_hundred_pattern_chain_needs_no_recursion(self):
        # The explicit stack must evaluate a 100-pattern chain even
        # under a recursion limit a recursive join would blow through.
        n = 100
        nxt = IRI("http://x/next")
        chain_store = TripleStore()
        for i in range(n + 1):
            chain_store.add(
                IRI(f"http://x/n{i}"), nxt, IRI(f"http://x/n{i+1}")
            )
        chain = [
            TriplePattern(Variable(f"v{i}"), nxt, Variable(f"v{i+1}"))
            for i in range(n)
        ]
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(90)
            solutions = list(iter_bgp(chain_store, chain))
            assert len(solutions) == 2
            assert all(len(s) == n + 1 for s in solutions)
        finally:
            sys.setrecursionlimit(limit)


class TestIterBgpDispatch:
    def test_default_planner_when_none_given(self, store):
        before = default_planner().snapshot()
        solutions = list(iter_bgp(store, BGP))
        after = default_planner().snapshot()
        assert canon(solutions) == canon(reference_bgp(store, BGP))
        assert (after.hits + after.misses) - (
            before.hits + before.misses
        ) == 1

    def test_planner_instance(self, store):
        planner = QueryPlanner()
        list(iter_bgp(store, BGP, planner=planner))
        assert planner.snapshot().misses == 1

    def test_streaming_stops_early(self, store):
        # Pulling two solutions must not run the join to completion:
        # the generator yields lazily off the explicit stack.
        it = iter_bgp(store, BGP)
        first = next(it)
        second = next(it)
        assert first != second


class TestExplain:
    def test_explain_reports_order_estimates_and_actuals(self, store):
        planner = QueryPlanner()
        explain = planner.explain(store, BGP)
        assert isinstance(explain, PlanExplain)
        assert explain.cache == "miss"
        assert sorted(explain.order) == [0, 1, 2]
        assert len(explain.steps) == 3
        assert explain.rows == len(reference_bgp(store, BGP))
        assert explain.steps[-1].output_rows == explain.rows
        rendered = explain.render()
        assert "join order" in rendered
        assert "plan cache: miss" in rendered
        assert f"rows: {explain.rows}" in rendered

    def test_explain_hits_cache_on_repeat(self, store):
        planner = QueryPlanner()
        planner.explain(store, BGP)
        assert planner.explain(store, BGP).cache == "hit"

    def test_explain_empty_bgp(self, store):
        explain = QueryPlanner().explain(store, [])
        assert explain.rows == 1
        assert "(empty)" in explain.render()


class TestObservability:
    def test_counters_mirror_into_registry(self, store):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        planner = QueryPlanner()
        planner.bind_registry(registry)
        list(planner.solutions(store, BGP))
        list(planner.solutions(store, BGP))
        store.add(iri("extra"), TYPE, PLACE)
        list(planner.solutions(store, BGP))
        cache = registry.get("planner_plan_cache_total")
        assert cache.value(result="miss") == 1
        assert cache.value(result="hit") == 1
        assert cache.value(result="invalidated") == 1
        compiled = registry.get("planner_plans_compiled_total")
        assert compiled.value() == 2
        exposition = registry.expose()
        assert "planner_plan_cache_size 1" in exposition
