"""The declarative IX detection pattern language (paper Section 2.3).

Patterns are written "in a SPARQL-like syntax, in terms of the POS tags;
the dependency graph edges; and dedicated vocabularies".  The paper's
own example pattern is::

    $x subject $y
    filter(POS($x) = "verb" && $y in V_participant)

A pattern definition in our concrete syntax adds a header line carrying
its metadata::

    PATTERN participant_subject TYPE participant ANCHOR $x
    $x subject $y
    filter(POS($x) = "verb" && $y in V_participant)

* ``TYPE`` — the individuality type: ``lexical``, ``participant`` or
  ``syntactic``;
* ``ANCHOR`` — the variable whose binding anchors the detected IX (the
  node the IXCreator completes into a full semantic unit);
* optional ``UNCERTAIN`` — ask the user to verify matches of this
  pattern (paper Section 4.1, Figure 4).

Edge lines use the dependency labels of
:data:`repro.nlp.graph.DEPENDENCY_LABELS`; ``subject`` and ``object``
are accepted as aliases for ``nsubj`` and ``dobj`` to match the paper's
surface syntax.  Filters support ``&&``, ``||``, ``!``, ``=``/``!=``
comparisons over the node functions ``POS($x)``, ``LEMMA($x)`` and
``TEXT($x)``, and vocabulary membership ``$x in V_name`` /
``LEMMA($x) in V_name``.

Patterns are *data*, not code: the default set lives in
``repro/data/ix_patterns.txt`` and an administrator can edit it without
touching the matcher — the transparency/extensibility argument the paper
makes for pattern matching over machine learning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.data.vocabularies import VocabularyRegistry
from repro.errors import PatternSyntaxError
from repro.nlp.graph import DEPENDENCY_LABELS, DepEdge, DepGraph, DepNode
from repro.nlp.postag_lexicon import TAGSET

__all__ = ["IXPattern", "PatternEdge", "PatternFilter", "PatternMatcher",
           "parse_patterns", "IX_TYPES", "pos_class_of_tag",
           "achievable_pos_classes"]

IX_TYPES = ("lexical", "participant", "syntactic")

_LABEL_ALIASES = {
    "subject": "nsubj",
    "object": "dobj",
    "modifier": "amod",
    "auxiliary": "aux",
}

# A special pattern-edge label matching any dependency label.
_ANY_LABEL = "*"


@dataclass(frozen=True, slots=True)
class PatternEdge:
    """One edge constraint: ``head_var --label--> dep_var``."""

    head: str
    label: str
    dependent: str


@dataclass(frozen=True)
class PatternFilter:
    """A boolean condition over the variable bindings.

    ``op``: ``and``, ``or``, ``not``, ``cmp`` (with comparator and two
    operand sub-expressions), ``in`` (function expr + vocabulary name),
    ``func`` (POS/LEMMA/TEXT of a variable) or ``const``.
    """

    op: str
    args: tuple = ()

    def variables(self) -> set[str]:
        out: set[str] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.op == "func":
                out.add(node.args[1])
            else:
                for arg in node.args:
                    if isinstance(arg, PatternFilter):
                        stack.append(arg)
        return out

    def conjuncts(self) -> list[PatternFilter]:
        """The top-level ``&&`` operands, left to right."""
        if self.op != "and":
            return [self]
        return [c for arg in self.args for c in arg.conjuncts()]


def pos_class_of_tag(tag: str) -> str:
    """Map a PTB tag to the coarse class names filters use.

    Modal auxiliaries get their own class: a pattern anchored on a
    "verb" must not fire on the bare modal ("should" is the *marker* of
    syntactic individuality, not the habit verb).
    """
    if tag == "MD":
        return "modal"
    if tag.startswith("V"):
        return "verb"
    if tag.startswith("N") or tag in ("PRP", "WP"):
        return "noun"
    if tag.startswith("J"):
        return "adjective"
    if tag.startswith("R") or tag == "WRB":
        return "adverb"
    return tag.lower()


#: The POS class of every tag the tagger emits, mapped once per process.
_POS_CLASSES = {tag: pos_class_of_tag(tag) for tag in TAGSET}


def achievable_pos_classes() -> frozenset[str]:
    """Every class ``POS($x)`` can evaluate to, given the tagger's tagset.

    A filter comparing ``POS($x)`` against anything else can never match
    — PatternLint's unreachable-pattern check.
    """
    return frozenset(_POS_CLASSES.values())


@dataclass(frozen=True)
class IXPattern:
    """A parsed IX detection pattern.

    The matching plan is compiled once, at construction: the sorted
    variables, one step per edge (in pattern order, so matches come out
    in the order a plain backtracking search finds them), and each
    top-level ``&&`` conjunct of the filter compiled into a closure that
    runs at the first step where all its variables are bound.
    """

    name: str
    ix_type: str
    anchor: str
    edges: tuple[PatternEdge, ...]
    filter: PatternFilter | None = None
    uncertain: bool = False

    def __post_init__(self):
        variables = {v for e in self.edges for v in (e.head, e.dependent)}
        if self.filter is not None:
            variables |= self.filter.variables()
        # Attributes, not fields, so repr/eq/fields() skip them.
        object.__setattr__(self, "_variables", tuple(sorted(variables)))
        object.__setattr__(self, "_plan", _compile_plan(self))

    def variables(self) -> set[str]:
        return set(self._variables)

    def validate(self) -> None:
        if self.ix_type not in IX_TYPES:
            raise PatternSyntaxError(
                f"pattern {self.name}: unknown TYPE {self.ix_type!r}"
            )
        if self.anchor not in self.variables():
            raise PatternSyntaxError(
                f"pattern {self.name}: ANCHOR ${self.anchor} is not used"
            )
        if not self.edges and len(self.variables()) != 1:
            raise PatternSyntaxError(
                f"pattern {self.name}: edge-free patterns must use "
                f"exactly one variable"
            )
        for edge in self.edges:
            if edge.label not in DEPENDENCY_LABELS and edge.label != _ANY_LABEL:
                raise PatternSyntaxError(
                    f"pattern {self.name}: unknown edge label "
                    f"{edge.label!r}"
                )


# ---------------------------------------------------------------------------
# Pattern text parsing
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^PATTERN\s+(?P<name>\w+)\s+TYPE\s+(?P<type>\w+)\s+"
    r"ANCHOR\s+\$(?P<anchor>\w+)(?P<uncertain>\s+UNCERTAIN)?\s*$"
)
_EDGE_RE = re.compile(r"^\$(?P<head>\w+)\s+(?P<label>[\w*]+)\s+\$(?P<dep>\w+)\s*$")

_FILTER_TOKEN_RE = re.compile(
    r"""
    (?P<func>POS|LEMMA|TEXT)
  | (?P<var>\$\w+)
  | (?P<vocab>V_\w+)
  | (?P<string>"[^"]*")
  | (?P<kw_in>\bin\b)
  | (?P<op>&&|\|\||!=|[=!()])
  | (?P<space>\s+)
""",
    re.VERBOSE,
)


class _FilterParser:
    """Recursive-descent parser for filter expressions."""

    def __init__(self, text: str, pattern_name: str):
        self.pattern_name = pattern_name
        self.tokens: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _FILTER_TOKEN_RE.match(text, pos)
            if m is None:
                raise PatternSyntaxError(
                    f"pattern {pattern_name}: bad filter near "
                    f"{text[pos:pos + 12]!r}"
                )
            if m.lastgroup != "space":
                self.tokens.append((m.lastgroup, m.group()))
            pos = m.end()
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise PatternSyntaxError(
                f"pattern {self.pattern_name}: unexpected end of filter"
            )
        self.pos += 1
        return tok

    def accept(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        if tok and tok[0] == kind and (value is None or tok[1] == value):
            self.pos += 1
            return True
        return False

    def parse(self) -> PatternFilter:
        expr = self.parse_or()
        if self.peek() is not None:
            raise PatternSyntaxError(
                f"pattern {self.pattern_name}: trailing filter tokens"
            )
        return expr

    def parse_or(self) -> PatternFilter:
        left = self.parse_and()
        while self.accept("op", "||"):
            left = PatternFilter("or", (left, self.parse_and()))
        return left

    def parse_and(self) -> PatternFilter:
        left = self.parse_unary()
        while self.accept("op", "&&"):
            left = PatternFilter("and", (left, self.parse_unary()))
        return left

    def parse_unary(self) -> PatternFilter:
        if self.accept("op", "!"):
            return PatternFilter("not", (self.parse_unary(),))
        if self.accept("op", "("):
            inner = self.parse_or()
            if not self.accept("op", ")"):
                raise PatternSyntaxError(
                    f"pattern {self.pattern_name}: missing ')'"
                )
            return self.parse_postfix(inner)
        return self.parse_postfix(self.parse_primary())

    def parse_postfix(self, left: PatternFilter) -> PatternFilter:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in ("=", "!="):
            comparator = self.next()[1]
            right = self.parse_primary()
            return PatternFilter("cmp", (comparator, left, right))
        if tok and tok[0] == "kw_in":
            self.next()
            kind, vocab = self.next()
            if kind != "vocab":
                raise PatternSyntaxError(
                    f"pattern {self.pattern_name}: expected vocabulary "
                    f"after 'in', got {vocab!r}"
                )
            return PatternFilter("in", (left, vocab))
        return left

    def parse_primary(self) -> PatternFilter:
        kind, value = self.next()
        if kind == "func":
            if not self.accept("op", "("):
                raise PatternSyntaxError(
                    f"pattern {self.pattern_name}: expected '(' after "
                    f"{value}"
                )
            var_kind, var = self.next()
            if var_kind != "var":
                raise PatternSyntaxError(
                    f"pattern {self.pattern_name}: {value}() needs a "
                    f"variable"
                )
            if not self.accept("op", ")"):
                raise PatternSyntaxError(
                    f"pattern {self.pattern_name}: missing ')' after "
                    f"{value}()"
                )
            return PatternFilter("func", (value, var[1:]))
        if kind == "var":
            # Bare "$y in V_x" sugar: the node's lemma is tested.
            return PatternFilter("func", ("LEMMA", value[1:]))
        if kind == "string":
            return PatternFilter("const", (value[1:-1],))
        raise PatternSyntaxError(
            f"pattern {self.pattern_name}: unexpected filter token "
            f"{value!r}"
        )


def parse_patterns(text: str) -> list[IXPattern]:
    """Parse a pattern definition file into validated patterns.

    Blank lines separate patterns; ``#`` starts a comment line.
    """
    patterns: list[IXPattern] = []
    blocks: list[list[str]] = [[]]
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append(line)
    if not blocks[-1]:
        blocks.pop()

    for block in blocks:
        header = _HEADER_RE.match(block[0])
        if header is None:
            raise PatternSyntaxError(
                f"bad pattern header: {block[0]!r}"
            )
        name = header.group("name")
        edges: list[PatternEdge] = []
        filter_expr: PatternFilter | None = None
        for line in block[1:]:
            if line.lower().startswith("filter"):
                body = line[len("filter"):].strip()
                if not (body.startswith("(") and body.endswith(")")):
                    raise PatternSyntaxError(
                        f"pattern {name}: filter must be parenthesised"
                    )
                if filter_expr is not None:
                    raise PatternSyntaxError(
                        f"pattern {name}: multiple filter lines"
                    )
                filter_expr = _FilterParser(body[1:-1], name).parse()
                continue
            edge = _EDGE_RE.match(line)
            if edge is None:
                raise PatternSyntaxError(
                    f"pattern {name}: bad edge line {line!r}"
                )
            label = edge.group("label")
            label = _LABEL_ALIASES.get(label, label)
            edges.append(
                PatternEdge(edge.group("head"), label, edge.group("dep"))
            )
        pattern = IXPattern(
            name=name,
            ix_type=header.group("type"),
            anchor=header.group("anchor"),
            edges=tuple(edges),
            filter=filter_expr,
            uncertain=bool(header.group("uncertain")),
        )
        pattern.validate()
        patterns.append(pattern)
    return patterns


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternMatch:
    """One successful match: the pattern and its variable bindings."""

    pattern: IXPattern
    binding: dict[str, DepNode]

    @property
    def anchor_node(self) -> DepNode:
        return self.binding[self.pattern.anchor]

    def nodes(self) -> set[DepNode]:
        return set(self.binding.values())


def _compile_filter(expr: PatternFilter):
    """``expr`` as a closure ``(binding, vocabularies) -> value``.

    The closure yields what the filter means over a binding: a string
    for constants and node functions, a bool for the operators.
    Vocabularies are resolved by name on each call, so one registered
    after the pattern was compiled still takes effect.
    """
    op, args = expr.op, expr.args
    if op == "const":
        value = args[0]
        return lambda b, v: value
    if op == "func":
        fn, var = args
        if fn == "POS":
            return lambda b, v: (
                _POS_CLASSES.get(b[var].tag) or pos_class_of_tag(b[var].tag)
            )
        if fn == "LEMMA":
            return lambda b, v: b[var].lemma
        if fn == "TEXT":
            return lambda b, v: b[var].text.lower()
        raise PatternSyntaxError(f"unknown function {fn}()")
    if op == "not":
        inner = _compile_filter(args[0])
        return lambda b, v: not inner(b, v)
    if op in ("and", "or"):
        # The parser builds binary nodes; bool(x and y) is all((x, y)).
        left, right = (_compile_filter(a) for a in args)
        if op == "and":
            return lambda b, v: bool(left(b, v) and right(b, v))
        return lambda b, v: bool(left(b, v) or right(b, v))
    if op == "cmp":
        comparator, left, right = args
        lf, rf = _compile_filter(left), _compile_filter(right)
        if comparator == "=":
            return lambda b, v: lf(b, v) == rf(b, v)
        return lambda b, v: lf(b, v) != rf(b, v)
    if op == "in":
        inner, vocab = args
        value = _compile_filter(inner)
        return lambda b, v: str(value(b, v)) in v[vocab]
    raise PatternSyntaxError(f"unknown filter op {op!r}")


def _compile_plan(pattern: IXPattern):
    """The steps of ``pattern``, or its checks when it has no edges.

    A step is ``(head var, label, dependent var, checks)``; a conjunct
    joins the checks of the first step that binds all its variables (or
    the last step, when some variable is never bound, so the failure
    surfaces as it would on a full binding).  A plan of ``None`` never
    matches: it has an unbound self-loop edge, which no tree has.
    """
    conjuncts = (
        pattern.filter.conjuncts() if pattern.filter is not None else []
    )
    if not pattern.edges:
        return tuple(_compile_filter(c) for c in conjuncts)
    bound: set[str] = set()
    steps = []
    for edge in pattern.edges:
        if edge.head == edge.dependent and edge.head not in bound:
            return None
        bound |= {edge.head, edge.dependent}
        ready = [c for c in conjuncts if c.variables() <= bound]
        conjuncts = [c for c in conjuncts if c not in ready]
        steps.append((edge.head, edge.label, edge.dependent, ready))
    steps[-1][3].extend(conjuncts)
    return tuple(
        (head, label, dep, tuple(_compile_filter(c) for c in ready))
        for head, label, dep, ready in steps
    )


class _EdgeIndex:
    """One graph's matchable edges, indexed once per ``match_all``.

    Edges out of the artificial ROOT never match, so they are left out.
    """

    __slots__ = ("nodes", "by_label", "by_head", "parent")

    def __init__(self, graph: DepGraph):
        self.nodes = graph.nodes()
        edges = [e for e in graph.edges() if not e.head.is_root]
        self.by_label: dict[str, list[DepEdge]] = {_ANY_LABEL: edges}
        self.by_head: dict[int, list[DepEdge]] = {}
        self.parent: dict[int, DepEdge] = {}
        for edge in edges:
            self.by_label.setdefault(edge.label, []).append(edge)
            self.by_head.setdefault(edge.head.index, []).append(edge)
            self.parent[edge.dependent.index] = edge


class PatternMatcher:
    """Matches IX patterns against dependency graphs.

    Matching a pattern means finding every assignment of its variables
    to graph nodes such that each pattern edge maps to a graph edge with
    the required label and the filter evaluates to true — subgraph
    matching restricted to connected patterns, which the paper's
    patterns always are.  Each pattern runs its compiled plan: edges in
    pattern order, candidates in graph-edge order, and each filter
    conjunct as soon as its variables are bound.
    """

    def __init__(self, vocabularies: VocabularyRegistry):
        self._vocabularies = vocabularies

    def match(
        self, pattern: IXPattern, graph: DepGraph
    ) -> list[PatternMatch]:
        """All matches of ``pattern`` in ``graph``."""
        return self._run(pattern, _EdgeIndex(graph))

    def match_all(
        self, patterns: list[IXPattern], graph: DepGraph
    ) -> list[PatternMatch]:
        """All matches of all patterns, in pattern order."""
        index = _EdgeIndex(graph)
        out: list[PatternMatch] = []
        for pattern in patterns:
            out.extend(self._run(pattern, index))
        return out

    def _run(self, pattern: IXPattern, index: _EdgeIndex
             ) -> list[PatternMatch]:
        plan = pattern._plan
        matches: list[PatternMatch] = []
        if plan is None:
            return matches
        vocabularies = self._vocabularies
        if not pattern.edges:
            if len(pattern._variables) != 1:
                raise PatternSyntaxError(
                    f"pattern {pattern.name}: edge-free patterns must use "
                    f"exactly one variable"
                )
            var = pattern._variables[0]
            for node in index.nodes:
                binding = {var: node}
                for check in plan:
                    if not check(binding, vocabularies):
                        break
                else:
                    matches.append(PatternMatch(pattern, binding))
            return matches

        last = len(plan) - 1

        def extend(i: int, binding: dict[str, DepNode]) -> None:
            head_var, label, dep_var, checks = plan[i]
            head, dep = binding.get(head_var), binding.get(dep_var)
            if dep is not None:
                parent = index.parent.get(dep.index)
                candidates = (parent,) if parent is not None else ()
            elif head is not None:
                candidates = index.by_head.get(head.index, ())
            else:
                candidates = index.by_label.get(label, ())
            for edge in candidates:
                if (label != _ANY_LABEL and edge.label != label) or (
                    head is not None and edge.head.index != head.index
                ):
                    continue
                binding[head_var] = edge.head
                binding[dep_var] = edge.dependent
                for check in checks:
                    if not check(binding, vocabularies):
                        break
                else:
                    if i == last:
                        matches.append(PatternMatch(pattern, dict(binding)))
                    else:
                        extend(i + 1, binding)
            if head is None:
                binding.pop(head_var, None)
            if dep is None:
                binding.pop(dep_var, None)

        extend(0, {})
        return matches
