"""Tests for the embedded ontology snapshots and the Ontology service."""

import sys
import threading

import pytest

import repro.rdf.ontology as ontology_module
from repro.data.ontologies import (
    load_dbpedia,
    load_food,
    load_geo,
    load_merged_ontology,
)
from repro.rdf.ontology import KB, normalize_label
from repro.rdf.terms import RDFS, Literal


@pytest.fixture(scope="module")
def geo():
    return load_geo()


@pytest.fixture(scope="module")
def merged():
    return load_merged_ontology()


class TestSnapshots:
    def test_all_snapshots_load(self):
        assert len(load_geo()) > 100
        assert len(load_dbpedia()) > 60
        assert len(load_food()) > 60

    def test_merged_is_union(self, merged):
        assert len(merged) == (
            len(load_geo()) + len(load_dbpedia()) + len(load_food())
        )

    def test_running_example_entities_present(self, geo):
        hotel = KB["Forest_Hotel,_Buffalo,_NY"]
        assert geo.store.contains(hotel, KB.instanceOf, KB.Hotel)
        assert geo.store.contains(KB.Delaware_Park, KB.near, hotel)
        assert geo.store.contains(KB.Buffalo_Zoo, KB.near, hotel)

    def test_fall_entity_present(self):
        dbp = load_dbpedia()
        assert dbp.store.contains(KB.Fall, KB.instanceOf, KB.Season)


class TestCachedSnapshotsAreFrozen:
    """Regression: the loaders lru_cache one shared Ontology, so a
    mutation through any reference used to poison every later caller.
    The cached instances are now frozen; ``.copy()`` is the escape
    hatch for callers that really want to mutate."""

    def test_cached_snapshot_rejects_mutation(self, geo):
        from repro.errors import FrozenStoreError

        with pytest.raises(FrozenStoreError):
            geo.store.add(KB.X, KB.instanceOf, KB.Place)
        with pytest.raises(FrozenStoreError):
            geo.store.remove(KB.Delaware_Park, KB.near,
                             KB["Forest_Hotel,_Buffalo,_NY"])

    def test_merged_snapshot_is_frozen_too(self, merged):
        assert merged.store.frozen

    def test_copy_is_mutable_and_isolated(self, geo):
        before = len(geo)
        clone = geo.copy()
        assert not clone.store.frozen
        clone.store.add(KB.X, KB.instanceOf, KB.Place)
        assert len(geo) == before
        assert len(clone) == before + 1


class TestEntityLookup:
    def test_exact_label_match(self, geo):
        matches = geo.lookup("Delaware Park")
        assert matches[0].iri == KB.Delaware_Park
        assert matches[0].score == 1.0

    def test_alias_match_scores_lower(self, geo):
        matches = geo.lookup("Forest Hotel")
        assert matches[0].iri == KB["Forest_Hotel,_Buffalo,_NY"]
        assert matches[0].score == pytest.approx(0.9)

    def test_buffalo_is_ambiguous(self, geo):
        matches = geo.lookup("Buffalo")
        top_iris = {m.iri for m in matches if m.score >= 0.9}
        assert {KB["Buffalo,_NY"], KB["Buffalo,_IL"]} <= top_iris

    def test_case_insensitive(self, geo):
        assert geo.lookup("delaware park")[0].iri == KB.Delaware_Park

    def test_class_lookup(self, geo):
        matches = geo.lookup("places", kinds=("class",))
        assert matches[0].iri == KB.Place

    def test_property_lookup(self, geo):
        matches = geo.lookup("near", kinds=("property",))
        assert matches[0].iri == KB.near

    def test_partial_match_scores_below_alias(self, geo):
        matches = geo.lookup("Albright")
        entry = next(m for m in matches
                     if m.iri == KB.Albright_Knox_Art_Gallery)
        assert 0 < entry.score < 0.9

    def test_no_match(self, geo):
        assert geo.lookup("xyzzyplugh") == []

    def test_best_match_threshold(self, geo):
        assert geo.best_match("xyzzyplugh") is None
        match = geo.best_match("Buffalo Zoo")
        assert match is not None and match.iri == KB.Buffalo_Zoo

    def test_kinds_filter_excludes(self, geo):
        assert geo.lookup("Delaware Park", kinds=("property",)) == []


class TestSchemaViews:
    def test_classes(self, geo):
        assert KB.Place in geo.classes
        assert KB.Hotel in geo.classes

    def test_properties(self, geo):
        assert KB.near in geo.properties
        assert KB.instanceOf in geo.properties

    def test_label_of(self, geo):
        assert geo.label_of(KB.Delaware_Park) == "Delaware Park"

    def test_label_of_falls_back_to_local_name(self, geo):
        assert geo.label_of(KB.Unknown_Thing) == "Unknown Thing"

    def test_instances_of(self, geo):
        hotels = geo.instances_of(KB.Hotel)
        assert KB["Forest_Hotel,_Buffalo,_NY"] in hotels
        assert KB.Bellagio in hotels

    def test_types_of(self, geo):
        types = geo.types_of(KB.Delaware_Park)
        assert KB.Park in types and KB.Place in types

    def test_vocabulary_words(self, geo):
        words = geo.vocabulary_words()
        assert "buffalo" in words and "hotel" in words


class TestNormalizeLabel:
    @pytest.mark.parametrize("raw,expected", [
        ("Forest_Hotel", "forest hotel"),
        ("  Delaware   Park ", "delaware park"),
        ("Buffalo, NY", "buffalo, ny"),
        ("Albright-Knox", "albrightknox"),
        ("UPPER case", "upper case"),
    ])
    def test_normalization(self, raw, expected):
        assert normalize_label(raw) == expected


class TestLookupMemo:
    """``lookup`` is memoized per (store epoch, phrase, kinds)."""

    def test_mutating_a_result_does_not_poison_the_memo(self, geo):
        first = geo.lookup("Buffalo")
        expected = list(first)
        first.clear()
        second = geo.lookup("Buffalo")
        assert second == expected
        assert second is not geo.lookup("Buffalo")

    def test_relabel_on_a_mutable_copy_shows_in_lookup(self, geo):
        clone = geo.copy()
        assert clone.lookup("Delaware Park")[0].label == "Delaware Park"
        old = clone.store.value(KB.Delaware_Park, RDFS.label, None)
        clone.store.remove(KB.Delaware_Park, RDFS.label, old)
        clone.store.add(
            KB.Delaware_Park, RDFS.label, Literal("Olmsted's Park")
        )
        matches = clone.lookup("Delaware Park")
        assert matches[0].label == "Olmsted's Park"
        assert matches == clone._rank("Delaware Park", None)

    def test_memo_never_exceeds_its_bound(self, geo, monkeypatch):
        monkeypatch.setattr(ontology_module, "LOOKUP_MEMO_SIZE", 8)
        clone = geo.copy()
        for i in range(30):
            clone.lookup(f"park {i}")
            assert len(clone._lookup_memo) <= 8
        # The newest entry survives eviction.
        assert any(key[1] == "park 29" for key in clone._lookup_memo)

    def test_concurrent_lookups_agree(self, geo, monkeypatch):
        # More threads than cores, a tiny bound so inserts evict, and a
        # short switch interval so threads interleave inside lookup.
        monkeypatch.setattr(ontology_module, "LOOKUP_MEMO_SIZE", 4)
        clone = geo.copy()
        phrases = [
            "Buffalo", "Delaware Park", "places", "hotel", "near",
            "Forest Hotel", "zoo", "Albright", "xyzzyplugh",
        ] * 10
        expected = {p: clone._rank(p, None) for p in phrases}
        barrier = threading.Barrier(4)
        results: list[list] = [[] for _ in range(4)]
        sizes: list[int] = []

        def worker(slot: int) -> None:
            barrier.wait()
            order = phrases if slot % 2 else phrases[::-1]
            for phrase in order:
                results[slot].append((phrase, clone.lookup(phrase)))
                sizes.append(len(clone._lookup_memo))

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert max(sizes) <= 4
        for slot in results:
            assert len(slot) == len(phrases)
            for phrase, matches in slot:
                assert matches == expected[phrase]
