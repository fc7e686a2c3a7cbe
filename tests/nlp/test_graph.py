"""Unit tests for the dependency-graph data structure."""

import pytest

from repro.errors import ParsingError
from repro.nlp.graph import DepGraph, DepNode


def make_node(i, text, tag="NN", lemma=None):
    return DepNode(index=i, text=text, lemma=lemma or text.lower(), tag=tag)


@pytest.fixture
def small_graph():
    """we/PRP visit/VBP parks/NNS -> root(visit), nsubj(we), dobj(parks)."""
    g = DepGraph("we visit parks")
    we = make_node(0, "we", "PRP")
    visit = make_node(1, "visit", "VBP")
    parks = make_node(2, "parks", "NNS", "park")
    for n in (we, visit, parks):
        g.add_node(n)
    g.add_edge(g.root_node, visit, "root")
    g.add_edge(visit, we, "nsubj")
    g.add_edge(visit, parks, "dobj")
    return g, we, visit, parks


class TestConstruction:
    def test_duplicate_node_rejected(self):
        g = DepGraph()
        g.add_node(make_node(0, "a"))
        with pytest.raises(ParsingError):
            g.add_node(make_node(0, "b"))

    def test_unknown_label_rejected(self, small_graph):
        g, we, visit, parks = small_graph
        with pytest.raises(ParsingError):
            g.add_edge(visit, parks, "frobnicate")

    def test_second_head_rejected(self, small_graph):
        g, we, visit, parks = small_graph
        with pytest.raises(ParsingError):
            g.add_edge(we, parks, "dobj")

    def test_edge_to_unknown_node_rejected(self):
        g = DepGraph()
        a = make_node(0, "a")
        b = make_node(1, "b")
        g.add_node(a)
        with pytest.raises(ParsingError):
            g.add_edge(a, b, "dobj")

    def test_root_cannot_be_dependent(self, small_graph):
        g, we, visit, parks = small_graph
        with pytest.raises(ParsingError):
            g.add_edge(visit, g.root_node, "dep")


class TestTraversal:
    def test_head(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.head == visit

    def test_children_by_label(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.children(visit, "nsubj") == [we]
        assert g.children(visit, "dobj") == [parks]

    def test_children_all(self, small_graph):
        g, we, visit, parks = small_graph
        assert set(g.children(visit)) == {we, parks}

    def test_parent(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.parent(we) == visit
        assert g.parent(visit) == g.root_node

    def test_parent_edge_label(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.parent_edge(parks).label == "dobj"

    def test_label_between(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.label_between(visit, we) == "nsubj"
        assert g.label_between(we, visit) is None

    def test_subtree(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.subtree(visit) == [we, visit, parks]
        assert g.subtree(parks) == [parks]

    def test_path(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.path(we, parks) == [we, visit, parks]
        assert g.path(we, we) == [we]

    def test_nodes_in_order(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.nodes() == [we, visit, parks]
        assert len(g) == 3

    def test_node_by_index(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.node(1) == visit
        with pytest.raises(KeyError):
            g.node(99)

    def test_contains(self, small_graph):
        g, we, visit, parks = small_graph
        assert we in g
        assert make_node(55, "x") not in g


class TestExportAndRendering:
    def test_text_span_orders_nodes(self, small_graph):
        g, we, visit, parks = small_graph
        assert g.text_span([parks, we]) == "we parks"

    def test_pretty_contains_all_edges(self, small_graph):
        g, *_ = small_graph
        rendered = g.pretty()
        for fragment in ("root(", "nsubj(", "dobj("):
            assert fragment in rendered


class TestNodeProperties:
    def test_verb_detection(self):
        assert make_node(0, "visit", "VBP").is_verb
        assert make_node(0, "should", "MD").is_verb
        assert not make_node(0, "park", "NN").is_verb

    def test_noun_detection(self):
        assert make_node(0, "park", "NN").is_noun
        assert make_node(0, "we", "PRP").is_noun
        assert not make_node(0, "visit", "VB").is_noun

    def test_proper_noun(self):
        assert make_node(0, "Buffalo", "NNP").is_proper_noun

    def test_adjective(self):
        assert make_node(0, "good", "JJ").is_adjective
