"""Tests for fact-sets, ground truth and the simulated crowd."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crowd.model import (
    FactSet,
    GroundTruth,
    _term_key,
    verbalize_fact_set,
)
from repro.crowd.scenarios import (
    buffalo_travel_truth,
    habit_fact_set,
    opinion_fact_set,
)
from repro.crowd.simulator import SimulatedCrowd, _unit_gaussian
from repro.data.ontologies import load_merged_ontology
from repro.oassisql.ast import ANYTHING, QueryTriple
from repro.rdf.ontology import KB
from repro.rdf.terms import Literal


FS_VISIT = habit_fact_set("visit", KB.Delaware_Park, ("in", KB.Fall))
FS_OPINION = opinion_fact_set(KB.Delaware_Park, "interesting")
TERMS = (ANYTHING, KB.visit, KB["in"], KB.Fall, KB.Delaware_Park,
         Literal("interesting"), Literal("a b"))


class TestFactSet:
    def test_canonical_order(self):
        a = FactSet((
            QueryTriple(ANYTHING, KB.visit, KB.Delaware_Park),
            QueryTriple(ANYTHING, KB["in"], KB.Fall),
        ))
        b = FactSet((
            QueryTriple(ANYTHING, KB["in"], KB.Fall),
            QueryTriple(ANYTHING, KB.visit, KB.Delaware_Park),
        ))
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()

    def test_distinct_fact_sets_differ(self):
        a = habit_fact_set("visit", KB.Delaware_Park)
        b = habit_fact_set("visit", KB.Buffalo_Zoo)
        assert a != b

    def test_variable_rejected(self):
        from repro.rdf.terms import Variable
        with pytest.raises(TypeError):
            FactSet(
                (QueryTriple(ANYTHING, KB.visit, Variable("x")),)
            ).key()

    def test_key_is_the_joined_term_keys(self):
        assert FS_VISIT.key() == (
            f"[] {KB['in'].value} {KB.Fall.value} & "
            f"[] {KB.visit.value} {KB.Delaware_Park.value}"
        )
        assert FS_OPINION.key() == (
            f'{KB.Delaware_Park.value} {KB.hasLabel.value} "interesting"'
        )

    @given(st.lists(
        st.tuples(st.sampled_from(TERMS), st.sampled_from(TERMS),
                  st.sampled_from(TERMS)),
        min_size=1, max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    def test_key_matches_join_formula(self, raw):
        fact_set = FactSet(tuple(QueryTriple(*t) for t in raw))
        assert fact_set.key() == " & ".join(
            " ".join(_term_key(x) for x in t.terms())
            for t in fact_set.triples
        )
        shuffled = FactSet(tuple(QueryTriple(*t) for t in reversed(raw)))
        assert shuffled == fact_set
        assert hash(shuffled) == hash(fact_set)
        assert shuffled.key() == fact_set.key()

    def test_equality_needs_a_fact_set(self):
        assert FS_VISIT != FS_VISIT.key()
        assert FS_VISIT == habit_fact_set(
            "visit", KB.Delaware_Park, ("in", KB.Fall)
        )

    @pytest.mark.parametrize("clone", [
        copy.copy,
        copy.deepcopy,
        lambda fs: pickle.loads(pickle.dumps(fs)),
    ])
    def test_copies_keep_the_key(self, clone):
        for fact_set in (FS_VISIT, FS_OPINION):
            twin = clone(fact_set)
            assert twin.key() == fact_set.key()
            assert twin == fact_set and hash(twin) == hash(fact_set)
            assert twin.triples == fact_set.triples

    def test_repr_shows_only_the_triples(self):
        assert repr(FS_VISIT) == f"FactSet(triples={FS_VISIT.triples!r})"
        assert [f.name for f in dataclasses.fields(FactSet)] == ["triples"]


class TestVerbalization:
    def test_habit_question(self):
        question = verbalize_fact_set(FS_VISIT, load_merged_ontology())
        assert question == (
            "How often do you visit Delaware Park in fall?"
        )

    def test_opinion_question(self):
        question = verbalize_fact_set(FS_OPINION, load_merged_ontology())
        assert question == (
            'Would you say that Delaware Park is "interesting"?'
        )

    def test_without_ontology_uses_local_names(self):
        question = verbalize_fact_set(FS_VISIT)
        assert "Delaware Park" in question


class TestGroundTruth:
    def test_default_for_unknown(self):
        truth = GroundTruth(default=0.05)
        assert truth.support(FS_VISIT) == 0.05

    def test_set_and_get(self):
        truth = GroundTruth()
        truth.set(FS_VISIT, 0.6)
        assert truth.support(FS_VISIT) == 0.6
        assert len(truth) == 1

    def test_out_of_range_rejected(self):
        truth = GroundTruth()
        with pytest.raises(ValueError):
            truth.set(FS_VISIT, 1.5)

    def test_scenario_truths_are_consistent(self):
        truth = buffalo_travel_truth()
        assert truth.support(FS_VISIT) == 0.55
        assert truth.support(FS_OPINION) == 0.82


class TestSimulatedCrowd:
    def test_determinism_same_seed(self):
        truth = buffalo_travel_truth()
        a = SimulatedCrowd(truth, size=20, noise=0.1, seed=7)
        b = SimulatedCrowd(truth, size=20, noise=0.1, seed=7)
        for m in range(20):
            assert a.ask(a.member(m), FS_VISIT) == b.ask(
                b.member(m), FS_VISIT
            )

    def test_different_seeds_differ(self):
        truth = buffalo_travel_truth()
        a = SimulatedCrowd(truth, size=20, noise=0.1, seed=1)
        b = SimulatedCrowd(truth, size=20, noise=0.1, seed=2)
        answers_a = [a.ask(a.member(m), FS_VISIT) for m in range(20)]
        answers_b = [b.ask(b.member(m), FS_VISIT) for m in range(20)]
        assert answers_a != answers_b

    def test_member_is_self_consistent(self):
        crowd = SimulatedCrowd(buffalo_travel_truth(), size=5, noise=0.2)
        member = crowd.member(0)
        assert crowd.ask(member, FS_VISIT) == crowd.ask(member, FS_VISIT)

    def test_answers_in_unit_interval(self):
        crowd = SimulatedCrowd(buffalo_travel_truth(), size=50,
                               noise=0.3)
        for m in crowd.members():
            answer = crowd.ask(m, FS_VISIT)
            assert 0.0 <= answer <= 1.0

    def test_clip_matches_numpy_clip(self):
        # Wide noise pushes many values past both ends of [0, 1].
        crowd = SimulatedCrowd(buffalo_travel_truth(), size=200,
                               noise=0.5, seed=4)
        for truth in (0.0, 0.02, 0.55, 1.0):
            for m in crowd.members():
                raw = truth + m.bias + 0.5 * _unit_gaussian(
                    4, m.member_id, FS_VISIT.key()
                )
                expected = float(np.clip(raw, 0.0, 1.0))
                got = m.personal_value(FS_VISIT, truth, 0.5, 4)
                assert type(got) is float
                assert repr(got) == repr(expected)

    def test_zero_noise_reports_truth(self):
        crowd = SimulatedCrowd(buffalo_travel_truth(), size=10,
                               noise=0.0)
        for m in crowd.members():
            assert crowd.ask(m, FS_VISIT) == pytest.approx(0.55)

    def test_population_support_near_truth(self):
        crowd = SimulatedCrowd(buffalo_travel_truth(), size=400,
                               noise=0.1, seed=3)
        estimate = crowd.population_support(FS_VISIT)
        assert abs(estimate - 0.55) < 0.05

    def test_question_counter(self):
        crowd = SimulatedCrowd(buffalo_travel_truth(), size=5)
        crowd.ask(crowd.member(0), FS_VISIT)
        crowd.ask(crowd.member(1), FS_VISIT)
        assert crowd.questions_asked == 2
        crowd.reset_counters()
        assert crowd.questions_asked == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SimulatedCrowd(GroundTruth(), size=0)
        with pytest.raises(ValueError):
            SimulatedCrowd(GroundTruth(), noise=-1)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_any_truth_any_seed_stays_in_bounds(self, support, seed):
        truth = GroundTruth(default=support)
        crowd = SimulatedCrowd(truth, size=10, noise=0.2, seed=seed)
        for m in crowd.members()[:5]:
            assert 0.0 <= crowd.ask(m, FS_VISIT) <= 1.0
