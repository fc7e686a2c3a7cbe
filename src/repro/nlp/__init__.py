"""Natural-language substrate: tokenizer, tagger, lemmatizer, parser.

This package replaces the Stanford Parser used by the paper (substitution
S1-S5 in DESIGN.md).  It exposes the same artifacts the NL2CM pipeline
consumes: Penn-Treebank POS tags and a typed dependency graph.

Typical use::

    from repro.nlp import parse

    graph = parse("What are the most interesting places near Forest Hotel?")
    for edge in graph.edges():
        print(edge.head.text, edge.label, edge.dependent.text)
"""

from repro.nlp.tokenizer import Token, Tokenizer, tokenize
from repro.nlp.lemma import Lemmatizer, lemmatize
from repro.nlp.postag import PosTagger, TaggedToken, tag
from repro.nlp.graph import DepEdge, DepGraph, DepNode
from repro.nlp.depparse import DependencyParser, parse

__all__ = [
    "Token",
    "Tokenizer",
    "tokenize",
    "Lemmatizer",
    "lemmatize",
    "PosTagger",
    "TaggedToken",
    "tag",
    "DepEdge",
    "DepGraph",
    "DepNode",
    "DependencyParser",
    "parse",
]
