"""Typed dependency graph model.

The dependency graph is the central data structure of NL2CM (paper
Section 2.2): the IX detector matches declarative patterns against it,
the general query generator aligns its nodes with ontology terms, and the
individual triple creator maps its subgraphs to OASSIS-QL triples.

Nodes carry the token, lemma and POS tag; edges carry a typed grammatical
relation (a Stanford-dependencies-style label set, see
:data:`DEPENDENCY_LABELS`).  The graph is a tree rooted at the main
predicate plus an artificial ``ROOT`` node, matching the output shape of
the Stanford Parser that the paper instruments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ParsingError

__all__ = ["DepNode", "DepEdge", "DepGraph", "DEPENDENCY_LABELS"]

#: The typed-dependency label set produced by :mod:`repro.nlp.depparse`.
#: A subset of the Stanford dependencies relevant to question parsing.
DEPENDENCY_LABELS = frozenset({
    "root",      # head of the sentence
    "nsubj",     # nominal subject
    "nsubjpass", # passive nominal subject
    "dobj",      # direct object
    "iobj",      # indirect object
    "attr",      # attribute (wh-complement of a copula)
    "cop",       # copula verb
    "aux",       # auxiliary (incl. modal)
    "auxpass",   # passive auxiliary
    "det",       # determiner
    "predet",    # predeterminer
    "amod",      # adjectival modifier
    "advmod",    # adverbial modifier
    "nn",        # noun compound modifier
    "num",       # numeric modifier
    "poss",      # possession modifier
    "possessive",# possessive clitic 's
    "prep",      # prepositional modifier (head -> preposition)
    "pobj",      # object of a preposition
    "pcomp",     # clausal complement of a preposition
    "mark",      # subordinating conjunction marker
    "rcmod",     # relative clause modifier
    "appos",     # appositional modifier ("Forest Hotel, Buffalo")
    "ccomp",     # clausal complement with its own subject
    "xcomp",     # open clausal complement
    "conj",      # conjunct
    "cc",        # coordination
    "neg",       # negation modifier
    "prt",       # verb particle
    "expl",      # expletive "there"
    "dep",       # unclassified dependency
    "punct",     # punctuation
})


@dataclass(frozen=True, slots=True)
class DepNode:
    """A node of the dependency graph — one token with its annotations.

    ``index`` is the token's position in the sentence; the artificial root
    node has index ``-1``.  Nodes are identified by index, so two nodes
    with equal indices in one graph are the same node.
    """

    index: int
    text: str
    lemma: str
    tag: str
    start: int = 0
    end: int = 0

    @property
    def lower(self) -> str:
        return self.text.lower()

    @property
    def is_root(self) -> bool:
        return self.index == -1

    @property
    def is_word(self) -> bool:
        """True if the token contains at least one letter or digit."""
        return any(ch.isalnum() for ch in self.text)

    @property
    def is_verb(self) -> bool:
        return self.tag.startswith("V") or self.tag == "MD"

    @property
    def is_noun(self) -> bool:
        return self.tag.startswith("N") or self.tag in ("PRP", "WP")

    @property
    def is_proper_noun(self) -> bool:
        return self.tag in ("NNP", "NNPS")

    @property
    def is_adjective(self) -> bool:
        return self.tag.startswith("J")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.text}-{self.index}"


@dataclass(frozen=True, slots=True)
class DepEdge:
    """A typed dependency: ``label(head, dependent)``."""

    head: DepNode
    dependent: DepNode
    label: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.label}({self.head}, {self.dependent})"


ROOT = DepNode(index=-1, text="ROOT", lemma="ROOT", tag="ROOT")


class DepGraph:
    """A dependency tree with an artificial ROOT node.

    The graph is built once by the parser and is immutable from the
    outside: consumers traverse it via :meth:`children`, :meth:`parent`,
    :meth:`subtree` and :meth:`edges`.
    """

    def __init__(self, sentence: str = ""):
        self.sentence = sentence
        self._nodes: dict[int, DepNode] = {-1: ROOT}
        self._edges: list[DepEdge] = []
        self._children: dict[int, list[DepEdge]] = {}
        self._parent: dict[int, DepEdge] = {}
        # Every node in index order, ROOT first; None until first asked.
        self._order: list[DepNode] | None = None

    # -- construction (used by the parser) ------------------------------------

    def add_node(self, node: DepNode) -> None:
        if node.index in self._nodes:
            raise ParsingError(f"duplicate node index {node.index}")
        self._nodes[node.index] = node
        self._order = None

    def add_edge(self, head: DepNode, dependent: DepNode, label: str) -> None:
        if label not in DEPENDENCY_LABELS:
            raise ParsingError(f"unknown dependency label {label!r}")
        if head.index not in self._nodes or dependent.index not in self._nodes:
            raise ParsingError("edge endpoints must be added as nodes first")
        if dependent.index in self._parent:
            raise ParsingError(
                f"node {dependent} already has a head; the graph is a tree"
            )
        if dependent.is_root:
            raise ParsingError("ROOT cannot be a dependent")
        edge = DepEdge(head, dependent, label)
        self._edges.append(edge)
        self._children.setdefault(head.index, []).append(edge)
        self._parent[dependent.index] = edge

    # -- read access -----------------------------------------------------------

    @property
    def root_node(self) -> DepNode:
        """The artificial ROOT node."""
        return ROOT

    @property
    def head(self) -> DepNode | None:
        """The sentence head (the dependent of the ``root`` edge)."""
        for edge in self._children.get(-1, []):
            if edge.label == "root":
                return edge.dependent
        return None

    def nodes(self, include_root: bool = False) -> list[DepNode]:
        """All token nodes in sentence order (a fresh list per call)."""
        order = self._order
        if order is None:
            order = self._order = sorted(
                self._nodes.values(), key=lambda n: n.index
            )
        return order[:] if include_root else order[1:]

    def node(self, index: int) -> DepNode:
        """The node at token position ``index``.

        Raises:
            KeyError: if there is no node with that index.
        """
        return self._nodes[index]

    def edges(self) -> list[DepEdge]:
        """All edges, in insertion order (excluding none)."""
        return list(self._edges)

    def children(self, node: DepNode, label: str | None = None) -> list[DepNode]:
        """Dependents of ``node``, optionally restricted to one label."""
        edges = self._children.get(node.index, [])
        return [
            e.dependent for e in edges if label is None or e.label == label
        ]

    def parent_edge(self, node: DepNode) -> DepEdge | None:
        """The incoming edge of ``node`` (None for ROOT / detached nodes)."""
        return self._parent.get(node.index)

    def parent(self, node: DepNode) -> DepNode | None:
        """The head of ``node`` (None for ROOT)."""
        edge = self._parent.get(node.index)
        return edge.head if edge else None

    def label_between(self, head: DepNode, dependent: DepNode) -> str | None:
        """The label of the edge ``head -> dependent``, if any."""
        for edge in self._children.get(head.index, []):
            if edge.dependent.index == dependent.index:
                return edge.label
        return None

    def subtree(self, node: DepNode) -> list[DepNode]:
        """``node`` and all its descendants, in sentence order."""
        seen: list[DepNode] = []
        stack = [node]
        while stack:
            cur = stack.pop()
            seen.append(cur)
            stack.extend(self.children(cur))
        return sorted(seen, key=lambda n: n.index)

    def path(self, a: DepNode, b: DepNode) -> list[DepNode] | None:
        """The undirected tree path from ``a`` to ``b`` (inclusive)."""
        ancestors_a = self._ancestor_chain(a)
        index_in_a = {n.index: i for i, n in enumerate(ancestors_a)}
        chain_b: list[DepNode] = []
        cur: DepNode | None = b
        while cur is not None:
            if cur.index in index_in_a:
                up = ancestors_a[: index_in_a[cur.index] + 1]
                return up + list(reversed(chain_b))
            chain_b.append(cur)
            cur = self.parent(cur)
        return None

    def _ancestor_chain(self, node: DepNode) -> list[DepNode]:
        chain = [node]
        cur = self.parent(node)
        while cur is not None:
            chain.append(cur)
            cur = self.parent(cur)
        return chain

    def text_span(self, nodes: list[DepNode]) -> str:
        """The surface text covered by ``nodes``, in sentence order."""
        ordered = sorted(
            (n for n in nodes if not n.is_root), key=lambda n: n.index
        )
        return " ".join(n.text for n in ordered)

    def __iter__(self) -> Iterator[DepNode]:
        return iter(self.nodes())

    def __len__(self) -> int:
        return len(self._nodes) - 1  # exclude ROOT

    def __contains__(self, node: DepNode) -> bool:
        return node.index in self._nodes

    def pretty(self) -> str:
        """A readable multi-line rendering, for the admin mode screen."""
        lines = [f"sentence: {self.sentence}"]
        for edge in sorted(
            self._edges, key=lambda e: (e.head.index, e.dependent.index)
        ):
            lines.append(
                f"  {edge.label}({edge.head.text}-{edge.head.index}, "
                f"{edge.dependent.text}-{edge.dependent.index})"
            )
        return "\n".join(lines)
