"""Tests for the OASSIS query engine on the demo scenarios."""

import pytest

from repro.crowd.scenarios import (
    buffalo_travel_truth,
    dietician_truth,
    habit_fact_set,
    vegas_rides_truth,
)
from repro.crowd.simulator import SimulatedCrowd
from repro.crowd.model import GroundTruth
from repro.data.ontologies import load_merged_ontology
from repro.errors import BudgetExhausted, EngineError
from repro.oassis.engine import EngineConfig, OassisEngine
from repro.oassisql import parse_oassisql
from repro.rdf.ontology import KB


FIGURE1 = """\
SELECT VARIABLES
WHERE
{$x instanceOf Place.
$x near Forest_Hotel,_Buffalo,_NY}
SATISFYING
{$x hasLabel "interesting"}
ORDER BY DESC(SUPPORT)
LIMIT 5
AND
{[] visit $x.
[] in Fall}
WITH SUPPORT THRESHOLD = 0.1"""


@pytest.fixture(scope="module")
def ontology():
    return load_merged_ontology()


def make_engine(ontology, truth, size=120, noise=0.08, seed=11,
                **config):
    crowd = SimulatedCrowd(truth, size=size, noise=noise, seed=seed)
    return OassisEngine(ontology, crowd, EngineConfig(**config))


class TestFigure1Evaluation:
    def test_where_bindings(self, ontology):
        engine = make_engine(ontology, buffalo_travel_truth())
        result = engine.evaluate(parse_oassisql(FIGURE1))
        # Six places are near Forest Hotel in the snapshot.
        assert result.where_bindings == 6

    def test_accepted_bindings_match_ground_truth(self, ontology):
        engine = make_engine(ontology, buffalo_travel_truth())
        result = engine.evaluate(parse_oassisql(FIGURE1))
        accepted_places = {
            o.binding["x"].local_name for o in result.accepted
        }
        # Elmwood Village is liked but below the 0.1 fall-visit
        # threshold is false (0.08 < 0.1): excluded.
        assert "Delaware_Park" in accepted_places
        assert "Buffalo_Zoo" in accepted_places
        assert "Elmwood_Village" not in accepted_places

    def test_ranking_follows_support(self, ontology):
        engine = make_engine(ontology, buffalo_travel_truth())
        result = engine.evaluate(parse_oassisql(FIGURE1))
        ranked = [b["x"].local_name for b in result.bindings()]
        assert ranked[0] == "Delaware_Park"

    def test_tasks_are_generated(self, ontology):
        engine = make_engine(ontology, buffalo_travel_truth())
        result = engine.evaluate(parse_oassisql(FIGURE1))
        assert result.tasks_used > 0
        questions = {t.question for t in result.tasks}
        assert any("interesting" in q for q in questions)
        assert any(q.startswith("How often do you visit") for q in
                   questions)


class TestThresholdClauses:
    QUERY = """\
SELECT VARIABLES
WHERE
{$x instanceOf Dish.
$x richIn Fiber}
SATISFYING
{[] eat $x.
[] for Breakfast}
WITH SUPPORT THRESHOLD = 0.1"""

    def test_dietician_scenario(self, ontology):
        engine = make_engine(ontology, dietician_truth())
        result = engine.evaluate(parse_oassisql(self.QUERY))
        accepted = {o.binding["x"].local_name for o in result.accepted}
        assert "Oatmeal" in accepted
        assert "Hummus" in accepted
        assert "Lentil_Soup" not in accepted  # 0.07 < 0.1

    def test_sequential_test_saves_tasks(self, ontology):
        # Clear-cut supports should need far fewer than max_sample
        # members per fact-set.
        engine = make_engine(ontology, dietician_truth(),
                             max_sample=60)
        result = engine.evaluate(parse_oassisql(self.QUERY))
        per_fact_set = result.tasks_used / max(result.where_bindings, 1)
        assert per_fact_set < 60

    def test_higher_threshold_accepts_fewer(self, ontology):
        low = make_engine(ontology, dietician_truth())
        high = make_engine(ontology, dietician_truth())
        query_low = parse_oassisql(self.QUERY)
        query_high = parse_oassisql(
            self.QUERY.replace("0.1", "0.5")
        )
        assert len(high.evaluate(query_high).accepted) <= len(
            low.evaluate(query_low).accepted
        )


class TestTopKClauses:
    QUERY = """\
SELECT VARIABLES
WHERE
{$x instanceOf Hotel.
$x locatedIn Las_Vegas.
$x hasAttraction $y.
$y instanceOf ThrillRide}
SATISFYING
{$y hasLabel "good"}
ORDER BY DESC(SUPPORT)
LIMIT 2"""

    def test_top2_rides(self, ontology):
        engine = make_engine(ontology, vegas_rides_truth())
        result = engine.evaluate(parse_oassisql(self.QUERY))
        top = {o.binding["y"].local_name for o in result.accepted}
        assert top == {"Big_Shot", "Big_Apple_Coaster"}

    def test_bottom_k(self, ontology):
        engine = make_engine(ontology, vegas_rides_truth())
        query = parse_oassisql(
            self.QUERY.replace("DESC", "ASC").replace("LIMIT 2",
                                                      "LIMIT 1")
        )
        result = engine.evaluate(query)
        bottom = {o.binding["y"].local_name for o in result.accepted}
        assert bottom == {"Adventuredome_Canyon_Blaster"}

    def test_shared_fact_sets_estimated_once(self, ontology):
        engine = make_engine(ontology, vegas_rides_truth(),
                             topk_sample=10)
        result = engine.evaluate(parse_oassisql(self.QUERY))
        # 4 distinct rides x 10 samples.
        assert result.tasks_used == 40


class TestEngineEdgeCases:
    def test_no_where_matches(self, ontology):
        engine = make_engine(ontology, GroundTruth())
        query = parse_oassisql(
            "SELECT VARIABLES\nWHERE\n{$x instanceOf Spaceship}\n"
            "SATISFYING\n{[] fly $x}\nWITH SUPPORT THRESHOLD = 0.1"
        )
        result = engine.evaluate(query)
        assert result.accepted == []
        assert result.tasks_used == 0

    def test_satisfying_only_query(self, ontology):
        truth = GroundTruth(default=0.9)
        engine = make_engine(ontology, truth)
        query = parse_oassisql(
            "SELECT VARIABLES\nSATISFYING\n{[] visit Delaware_Park}\n"
            "WITH SUPPORT THRESHOLD = 0.5"
        )
        result = engine.evaluate(query)
        assert len(result.accepted) == 1

    def test_open_variable_with_empty_world_yields_nothing(self,
                                                           ontology):
        engine = make_engine(ontology, GroundTruth())
        query = parse_oassisql(
            "SELECT VARIABLES\nSATISFYING\n{[] visit $q}\n"
            "WITH SUPPORT THRESHOLD = 0.1"
        )
        result = engine.evaluate(query)
        assert result.accepted == []

    def test_open_pattern_mined_from_crowd(self, ontology):
        # "$q" occurs only in SATISFYING: the crowd instantiates it.
        engine = make_engine(ontology, buffalo_travel_truth())
        query = parse_oassisql(
            "SELECT VARIABLES\nSATISFYING\n{[] visit $q.\n[] in Fall}\n"
            "WITH SUPPORT THRESHOLD = 0.3"
        )
        result = engine.evaluate(query)
        mined = {o.binding["q"].local_name for o in result.accepted}
        assert mined == {"Delaware_Park", "Buffalo_Zoo",
                         "Albright_Knox_Art_Gallery"}

    def test_open_pattern_topk(self, ontology):
        engine = make_engine(ontology, buffalo_travel_truth())
        query = parse_oassisql(
            "SELECT VARIABLES\nSATISFYING\n"
            "{$q hasLabel \"interesting\"}\n"
            "ORDER BY DESC(SUPPORT)\nLIMIT 1"
        )
        result = engine.evaluate(query)
        assert [o.binding["q"].local_name for o in result.accepted] == [
            "Delaware_Park"
        ]

    def test_anything_in_where_raises(self, ontology):
        engine = make_engine(ontology, GroundTruth())
        query = parse_oassisql(
            "SELECT VARIABLES\nWHERE\n{[] instanceOf Place}\n"
            "SATISFYING\n{[] visit Delaware_Park}\n"
            "WITH SUPPORT THRESHOLD = 0.1"
        )
        with pytest.raises(EngineError):
            engine.evaluate(query)

    def test_budget_exhaustion(self, ontology):
        engine = make_engine(ontology, buffalo_travel_truth(),
                             task_budget=10)
        with pytest.raises(BudgetExhausted) as err:
            engine.evaluate(parse_oassisql(FIGURE1))
        assert err.value.tasks_used == 10

    def test_noise_degrades_gracefully(self, ontology):
        # Even at high noise the top place should usually stay on top.
        engine = make_engine(ontology, buffalo_travel_truth(),
                             noise=0.25, size=300, seed=5)
        result = engine.evaluate(parse_oassisql(FIGURE1))
        ranked = [b["x"].local_name for b in result.bindings()]
        assert "Delaware_Park" in ranked[:2]


class TestPlannerModes:
    """WHERE evaluation runs through the engine's query planner."""

    def test_dedicated_planner_records_cache_traffic(self, ontology):
        from repro.rdf.planner import QueryPlanner

        planner = QueryPlanner()
        engine = make_engine(ontology, buffalo_travel_truth())
        engine.planner = planner
        query = parse_oassisql(FIGURE1)
        engine.evaluate(query)
        engine.evaluate(query)
        snap = planner.snapshot()
        assert snap.misses == 1
        assert snap.hits == 1


class TestWhereBindings:
    def test_distinct_terms_with_equal_text_stay_apart(self):
        # An IRI and a string literal with the same text, and an int
        # literal next to its string form, are four distinct objects:
        # each must surface as its own WHERE binding.
        from repro.rdf.ontology import Ontology
        from repro.rdf.store import TripleStore
        from repro.rdf.terms import IRI, Literal

        store = TripleStore()
        for obj in (KB.v, Literal(str(KB.v)), Literal(1), Literal("1")):
            store.add(KB.a, KB.p, obj)
        engine = OassisEngine(
            Ontology(store), SimulatedCrowd(GroundTruth(), size=5, seed=0)
        )
        query = parse_oassisql("SELECT VARIABLES\nWHERE\n{a p $y}")
        result = engine.evaluate(query)
        assert result.where_bindings == 4
        assert {o.binding["y"] for o in result.outcomes} == {
            IRI(str(KB.v)), Literal(str(KB.v)), Literal(1), Literal("1"),
        }
