"""PatternLint: static analysis of the IX detection pattern bank.

Detection patterns are *data* (``repro/data/ix_patterns.txt``) that an
administrator edits without touching the matcher — which is exactly why
they deserve a linter: a typo'd vocabulary name or an impossible POS
comparison silently turns a pattern into dead weight, and the system
just stops detecting that individuality type.

PatternLint analyzes a whole bank at once, so it can also catch
cross-pattern problems (duplicate names, structurally overlapping
patterns).  Within one pattern it checks:

* filters referencing variables no edge declares;
* capture variables that constrain nothing (one edge mention, not the
  anchor, unused by the filter);
* vocabulary references that are unknown or empty;
* ``POS($x)`` comparisons against classes the tagger can never produce
  and conjunctions that are statically unsatisfiable — patterns that
  can never fire.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.diagnostics import AnalysisReport, Location, Severity
from repro.analysis.registry import Rule, RuleRegistry
from repro.core.ixpatterns import (
    IXPattern,
    PatternFilter,
    achievable_pos_classes,
)
from repro.data.vocabularies import VocabularyRegistry

__all__ = ["PATTERN_RULES", "PatternLint"]

_E = Severity.ERROR
_W = Severity.WARNING

#: Every PatternLint rule, in catalog order (see docs/static-analysis.md).
PATTERN_RULES: list[Rule] = [
    Rule("duplicate-pattern-name", "pattern", _E,
         "two patterns share a name; matches become unattributable"),
    Rule("filter-undeclared-variable", "pattern", _E,
         "the filter references a variable no edge declares"),
    Rule("edge-free-multi-variable", "pattern", _E,
         "an edge-free pattern must use exactly one variable"),
    Rule("unknown-vocabulary", "pattern", _E,
         "the filter references a vocabulary the registry does not "
         "know"),
    Rule("empty-vocabulary", "pattern", _W,
         "the filter tests membership in an empty vocabulary"),
    Rule("unconstrained-variable", "pattern", _W,
         "a variable is mentioned by one edge only and never "
         "constrained"),
    Rule("unreachable-pos-class", "pattern", _W,
         "POS() is compared against a class the tagger never produces"),
    Rule("contradictory-filter", "pattern", _W,
         "the filter requires one node function to equal two different "
         "constants"),
    Rule("disconnected-pattern", "pattern", _W,
         "the edge set splits into unconnected variable groups "
         "(cartesian matching)"),
    Rule("overlapping-pattern", "pattern", _W,
         "two patterns have the same structure; one duplicates or "
         "subsumes the other"),
]


def _pattern_location(pattern: IXPattern) -> Location:
    return Location(f"pattern {pattern.name}")


class _PatternFacts:
    """Pure structural facts about one (immutable) pattern.

    Everything here is a function of the pattern alone — no registry,
    no vocabulary state — so it is computed once per pattern object and
    cached: the production bank is loaded once per process, and
    re-linting it (every ``NL2CM`` construction) should not re-derive
    shapes, filter walks, or findings that cannot have changed.  The
    vocabulary rules are the exception (they depend on the registry the
    linter was built with), so only the vocabulary *references* are
    cached and the membership checks stay live.

    ``var_findings`` / ``filter_findings`` / ``conn_findings`` are
    ``(rule, message, hint)`` triples the linter replays through its
    own registry, preserving per-rule configuration.
    """

    __slots__ = (
        "shape_key", "normalized_filter", "vocab_refs", "location",
        "var_findings", "filter_findings", "conn_findings",
    )

    def __init__(self, pattern: IXPattern):
        self.shape_key = _shape_key(pattern)
        self.normalized_filter = _normalized_filter(pattern)
        self.location = _pattern_location(pattern)
        if pattern.filter is not None:
            self.vocab_refs, pos_values = _filter_refs(pattern.filter)
            contradictions = tuple(_contradictions(pattern.filter))
            filter_vars = pattern.filter.variables()
        else:
            self.vocab_refs = set()
            pos_values = []
            contradictions = ()
            filter_vars = set()
        self.var_findings = tuple(
            _variable_findings(pattern, filter_vars)
        )
        self.filter_findings = tuple(
            _filter_findings(pos_values, contradictions)
        )
        self.conn_findings = tuple(_connectivity_findings(pattern))


def _variable_findings(pattern: IXPattern, filter_vars: set[str]):
    """(rule, message, hint) for the variable-dataflow rules."""
    if not pattern.edges:
        n_vars = len(pattern.variables())
        if n_vars != 1:
            yield ("edge-free-multi-variable",
                   f"edge-free pattern uses {n_vars} variables",
                   "an edge-free pattern matches single nodes; "
                   "use one variable")
        return
    edge_vars: dict[str, int] = {}
    for edge in pattern.edges:
        edge_vars[edge.head] = edge_vars.get(edge.head, 0) + 1
        edge_vars[edge.dependent] = edge_vars.get(edge.dependent, 0) + 1
    for name in sorted(filter_vars - edge_vars.keys()):
        yield ("filter-undeclared-variable",
               f"filter references ${name}, but no edge mentions it",
               f"add an edge constraining ${name} or fix the "
               f"variable name")
    for name in sorted(edge_vars):
        if (
            edge_vars[name] == 1
            and name != pattern.anchor
            and name not in filter_vars
        ):
            yield ("unconstrained-variable",
                   f"${name} appears in one edge and is never "
                   f"constrained or anchored",
                   f"constrain ${name} in the filter or drop the "
                   f"edge")


def _filter_findings(pos_values: list[str], contradictions: tuple):
    """(rule, message, hint) for the pure filter-semantics rules."""
    classes = achievable_pos_classes()
    for value in pos_values:
        if value not in classes:
            yield ("unreachable-pos-class",
                   f'POS() can never equal "{value}"',
                   "achievable classes include: "
                   + ", ".join(sorted(
                       c for c in classes if c.isalpha()
                   )))
    for fn, var, values in contradictions:
        rendered = ", ".join(f'"{v}"' for v in values)
        yield ("contradictory-filter",
               f"{fn}(${var}) is required to equal {rendered} at once",
               "use || between alternative values")


def _connectivity_findings(pattern: IXPattern):
    """(rule, message, hint) for the edge-connectivity rule."""
    if len(pattern.edges) < 2:
        return
    groups: list[set[str]] = []
    for edge in pattern.edges:
        touching = [
            g for g in groups
            if edge.head in g or edge.dependent in g
        ]
        merged = {edge.head, edge.dependent}
        for g in touching:
            merged |= g
            groups.remove(g)
        groups.append(merged)
    if len(groups) > 1:
        yield ("disconnected-pattern",
               f"the edges form {len(groups)} unconnected variable "
               f"groups",
               "connect the groups through a shared variable; "
               "disconnected groups match all combinations")


#: id(pattern) -> (pattern, facts).  Keeping the pattern itself in the
#: value pins the id, so the key can never be silently recycled; the
#: identity check on lookup makes the cache correct even if it were.
_FACTS_CACHE: dict[int, tuple[IXPattern, _PatternFacts]] = {}
_FACTS_MAX = 256


def _pattern_facts(pattern: IXPattern) -> _PatternFacts:
    key = id(pattern)
    hit = _FACTS_CACHE.get(key)
    if hit is not None and hit[0] is pattern:
        return hit[1]
    facts = _PatternFacts(pattern)
    if len(_FACTS_CACHE) >= _FACTS_MAX:
        _FACTS_CACHE.clear()
    _FACTS_CACHE[key] = (pattern, facts)
    return facts


class PatternLint:
    """Rule-based static analyzer for IX pattern banks.

    Args:
        vocabularies: the registry patterns resolve ``V_name`` against;
            omit to skip the vocabulary rules.
        registry: a configured :class:`RuleRegistry`; a fresh one with
            every pattern rule at default severity if omitted.
    """

    def __init__(
        self,
        vocabularies: VocabularyRegistry | None = None,
        registry: RuleRegistry | None = None,
    ):
        self.vocabularies = vocabularies
        self.registry = registry or RuleRegistry(PATTERN_RULES)

    def lint(
        self,
        patterns: list[IXPattern],
        subject: str = "pattern bank",
    ) -> AnalysisReport:
        """Analyze a whole bank; never raises on pattern content."""
        report = AnalysisReport(subject=subject)
        names = Counter(p.name for p in patterns)
        for name, count in sorted(names.items()):
            if count > 1:
                self.registry.emit(
                    report, "duplicate-pattern-name",
                    f"{count} patterns are named {name!r}",
                    Location(f"pattern {name}"),
                    hint="give each pattern a unique name",
                )
        emit = self.registry.emit
        for pattern in patterns:
            facts = _pattern_facts(pattern)
            location = facts.location
            for rule, message, hint in facts.var_findings:
                emit(report, rule, message, location, hint=hint)
            self._check_vocabularies(facts, report)
            for rule, message, hint in facts.filter_findings:
                emit(report, rule, message, location, hint=hint)
            for rule, message, hint in facts.conn_findings:
                emit(report, rule, message, location, hint=hint)
        self._check_overlaps(patterns, report)
        return report

    # -- vocabulary reachability (registry-dependent, stays live) ------------

    def _check_vocabularies(
        self, facts: _PatternFacts, report
    ) -> None:
        if self.vocabularies is None or not facts.vocab_refs:
            return
        location = facts.location
        for vocab_name in sorted(facts.vocab_refs):
            if vocab_name not in self.vocabularies:
                self.registry.emit(
                    report, "unknown-vocabulary",
                    f"filter tests membership in {vocab_name}, which is "
                    f"not registered",
                    location,
                    hint="known vocabularies: "
                         + ", ".join(self.vocabularies.names()),
                )
            elif len(self.vocabularies[vocab_name]) == 0:
                self.registry.emit(
                    report, "empty-vocabulary",
                    f"{vocab_name} is empty; the membership test never "
                    f"holds",
                    location,
                    hint=f"populate {vocab_name} or drop the test",
                )

    # -- structure -----------------------------------------------------------

    def _check_overlaps(self, patterns: list[IXPattern], report) -> None:
        by_shape: dict[tuple, list[IXPattern]] = {}
        for pattern in patterns:
            by_shape.setdefault(
                _pattern_facts(pattern).shape_key, []
            ).append(pattern)
        for group in by_shape.values():
            if len(group) < 2:
                continue
            first = group[0]
            first_filter = _pattern_facts(first).normalized_filter
            for other in group[1:]:
                other_filter = _pattern_facts(other).normalized_filter
                if first_filter == other_filter:
                    relation = "duplicates"
                elif first_filter is None or other_filter is None:
                    relation = "is subsumed by" if (
                        other_filter is not None
                    ) else "subsumes"
                else:
                    continue  # same shape, genuinely different filters
                self.registry.emit(
                    report, "overlapping-pattern",
                    f"pattern {other.name!r} {relation} pattern "
                    f"{first.name!r}",
                    _pattern_location(other),
                    hint="merge the patterns or differentiate their "
                         "filters",
                )


# ---------------------------------------------------------------------------
# Filter-tree walks
# ---------------------------------------------------------------------------

def _filter_refs(
    filter_expr: PatternFilter,
) -> tuple[set[str], list[str]]:
    """Vocabulary names and ``POS()``-compared constants, in one walk.

    The two collections used to be separate traversals; fusing them
    halves the tree-walk cost of the hottest per-pattern check.
    """
    vocabs: set[str] = set()
    pos_values: list[str] = []
    stack = [filter_expr]
    while stack:
        node = stack.pop()
        op = node.op
        if op == "in":
            vocabs.add(node.args[1])
        elif op == "cmp":
            _, left, right = node.args
            for a, b in ((left, right), (right, left)):
                if (
                    a.op == "func" and a.args[0] == "POS"
                    and b.op == "const"
                ):
                    pos_values.append(b.args[0])
        for arg in node.args:
            if isinstance(arg, PatternFilter):
                stack.append(arg)
    return vocabs, pos_values


def _contradictions(filter_expr: PatternFilter):
    """(fn, var, sorted values) for functions pinned to >1 constant."""
    pinned: dict[tuple[str, str], set[str]] = {}
    for node in filter_expr.conjuncts():
        if node.op != "cmp" or node.args[0] != "=":
            continue
        _, left, right = node.args
        for a, b in ((left, right), (right, left)):
            if a.op == "func" and b.op == "const":
                pinned.setdefault(tuple(a.args), set()).add(b.args[0])
    for (fn, var), values in sorted(pinned.items()):
        if len(values) > 1:
            yield fn, var, sorted(values)


# ---------------------------------------------------------------------------
# Structural normalization (for overlap detection)
# ---------------------------------------------------------------------------

def _renamer(pattern: IXPattern) -> dict[str, str]:
    """Canonical variable names, in order of appearance in the edges."""
    mapping: dict[str, str] = {}

    def rename(name: str) -> str:
        if name not in mapping:
            mapping[name] = f"v{len(mapping)}"
        return mapping[name]

    for edge in pattern.edges:
        rename(edge.head)
        rename(edge.dependent)
    rename(pattern.anchor)
    for name in sorted(pattern.variables()):
        rename(name)
    return mapping


def _shape_key(pattern: IXPattern) -> tuple:
    mapping = _renamer(pattern)
    edges = tuple(
        (mapping[e.head], e.label, mapping[e.dependent])
        for e in pattern.edges
    )
    return (pattern.ix_type, edges, mapping[pattern.anchor])


def _normalized_filter(pattern: IXPattern):
    if pattern.filter is None:
        return None
    mapping = _renamer(pattern)

    def normalize(node: PatternFilter) -> tuple:
        if node.op == "func":
            fn, var = node.args
            return ("func", fn, mapping.get(var, var))
        args = tuple(
            normalize(a) if isinstance(a, PatternFilter) else a
            for a in node.args
        )
        return (node.op, args)

    return normalize(pattern.filter)
