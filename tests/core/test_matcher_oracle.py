"""Compiled IX matcher vs. the naive backtracking oracle.

On random dependency trees (random shape, labels, tags, lemmas and edge
insertion order) and random patterns (the ``*`` label, edge-free
patterns, multi-edge chains and disconnected edges, filters with
``!``, ``||``, ``&&``, comparisons and vocabulary tests), the compiled
matcher must return the same matches, with the same bindings, in the
same order as :mod:`tests.core.reference_matcher`.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.core.ixdetect import IXFinder
from repro.core.ixpatterns import (
    IXPattern,
    PatternEdge,
    PatternFilter,
    PatternMatcher,
    parse_patterns,
)
from repro.data.vocabularies import Vocabulary, VocabularyRegistry
from repro.nlp.graph import DepGraph, DepNode
from tests.core.reference_matcher import reference_match

LABELS = ("nsubj", "dobj", "amod", "prep", "pobj", "root")
PATTERN_LABELS = LABELS + ("*",)
# "XYZ" is outside the tagger's tagset: POS() falls back to its lower case.
TAGS = ("NN", "NNS", "VB", "VBD", "MD", "JJ", "RB", "PRP", "WRB", "XYZ")
WORDS = ("we", "kids", "visit", "should", "good", "place", "true", "In")
VARIABLES = ("a", "b", "c")


def registry() -> VocabularyRegistry:
    return VocabularyRegistry([
        Vocabulary("V_people", ["we", "kids"]),
        # "true" makes `(cmp) in V_misc` true for a true comparison.
        Vocabulary("V_misc", ["visit", "good", "true", "in"]),
    ])


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    graph = DepGraph("random")
    nodes = [
        DepNode(
            index=i,
            text=draw(st.sampled_from(WORDS)),
            lemma=draw(st.sampled_from(WORDS)).lower(),
            tag=draw(st.sampled_from(TAGS)),
        )
        for i in range(n)
    ]
    for node in nodes:
        graph.add_node(node)
    edges = []
    for i, node in enumerate(nodes):
        # Parents come earlier (or are ROOT), so the graph stays a tree;
        # a node may also stay detached.
        parent = draw(st.integers(min_value=-2, max_value=i - 1))
        if parent == -2:
            continue
        edges.append((parent, i, draw(st.sampled_from(LABELS))))
    for head, dep, label in draw(st.permutations(edges)):
        graph.add_edge(graph.node(head), graph.node(dep), label)
    return graph


def filters(variables):
    funcs = st.builds(
        lambda fn, var: PatternFilter("func", (fn, var)),
        st.sampled_from(("POS", "LEMMA", "TEXT")),
        st.sampled_from(variables),
    )
    consts = st.builds(
        lambda value: PatternFilter("const", (value,)),
        st.sampled_from(("noun", "verb", "modal", "xyz") + WORDS),
    )
    operands = st.one_of(funcs, consts)
    atoms = st.one_of(
        st.builds(
            lambda cmp, left, right: PatternFilter("cmp", (cmp, left, right)),
            st.sampled_from(("=", "!=")), operands, operands,
        ),
        st.builds(
            lambda inner, vocab: PatternFilter("in", (inner, vocab)),
            funcs, st.sampled_from(("V_people", "V_misc")),
        ),
        funcs,
    )
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(lambda x: PatternFilter("not", (x,)), inner),
            st.builds(lambda x, y: PatternFilter("and", (x, y)),
                      inner, inner),
            st.builds(lambda x, y: PatternFilter("or", (x, y)),
                      inner, inner),
            st.builds(
                lambda x, vocab: PatternFilter("in", (x, vocab)),
                inner, st.just("V_misc"),
            ),
        ),
        max_leaves=6,
    )


@st.composite
def patterns(draw):
    n_edges = draw(st.integers(min_value=0, max_value=3))
    edges = []
    for _ in range(n_edges):
        head, dep = draw(st.permutations(VARIABLES))[:2]
        edges.append(
            PatternEdge(head, draw(st.sampled_from(PATTERN_LABELS)), dep)
        )
    used = sorted({v for e in edges for v in (e.head, e.dependent)}) or ["a"]
    flt = draw(st.none() | filters(used))
    # An edge-free pattern matches single nodes: one variable exactly.
    assume(edges or (flt is not None and flt.variables() == {"a"}))
    return IXPattern(
        name="random", ix_type="lexical", anchor=used[0],
        edges=tuple(edges), filter=flt,
    )


def as_list(matches):
    return [
        [(var, node.index) for var, node in m.binding.items()]
        for m in matches
    ]


class TestCompiledAgainstReference:
    @given(graphs(), patterns())
    @settings(max_examples=400, deadline=None)
    def test_same_matches_in_same_order(self, graph, pattern):
        vocabularies = registry()
        compiled = PatternMatcher(vocabularies).match(pattern, graph)
        assert as_list(compiled) == as_list(
            reference_match(pattern, graph, vocabularies)
        )

    @given(graphs(), st.lists(patterns(), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_match_all_shares_one_index(self, graph, bank):
        vocabularies = registry()
        compiled = PatternMatcher(vocabularies).match_all(bank, graph)
        expected = [
            m for p in bank for m in reference_match(p, graph, vocabularies)
        ]
        assert as_list(compiled) == as_list(expected)

    def test_chain_with_pushed_down_conjuncts(self):
        graph = DepGraph("we visit good places")
        we, visit, good, places = (
            DepNode(0, "we", "we", "PRP"), DepNode(1, "visit", "visit", "VB"),
            DepNode(2, "good", "good", "JJ"),
            DepNode(3, "places", "place", "NNS"),
        )
        for node in (we, visit, good, places):
            graph.add_node(node)
        graph.add_edge(graph.root_node, visit, "root")
        graph.add_edge(visit, we, "nsubj")
        graph.add_edge(visit, places, "dobj")
        graph.add_edge(places, good, "amod")
        (pattern,) = parse_patterns(
            "PATTERN chain TYPE lexical ANCHOR $v\n"
            "$v * $o\n"
            "$o amod $j\n"
            'filter(POS($v) = "verb" && !(TEXT($o) = "we") '
            "&& LEMMA($j) in V_misc)"
        )
        vocabularies = registry()
        compiled = PatternMatcher(vocabularies).match(pattern, graph)
        assert as_list(compiled) == [[("v", 1), ("o", 3), ("j", 2)]]
        assert as_list(compiled) == as_list(
            reference_match(pattern, graph, vocabularies)
        )


class TestVocabulariesResolvedAtMatchTime:
    PATTERN = (
        "PATTERN late TYPE lexical ANCHOR $x\n"
        "filter(LEMMA($x) in V_late)"
    )

    def graph(self):
        graph = DepGraph("we like zorp")
        for i, (text, tag) in enumerate(
            (("we", "PRP"), ("like", "VBP"), ("zorp", "NN"))
        ):
            graph.add_node(DepNode(i, text, text, tag))
        return graph

    def test_vocabulary_registered_after_construction(self):
        vocabularies = VocabularyRegistry([Vocabulary("V_late", [])])
        finder = IXFinder(parse_patterns(self.PATTERN), vocabularies)
        graph = self.graph()
        assert finder.find(graph) == []
        vocabularies.register(Vocabulary("V_late", ["zorp"]))
        assert [m.anchor_node.text for m in finder.find(graph)] == ["zorp"]
