"""SPARQL SELECT subset: parser and evaluator.

This is the query machinery behind the WHERE clause of OASSIS-QL (which
is "a SPARQL-like selection query on the ontology", paper Section 2.1)
and behind the FREyA-style general query generator.  Supported:

* ``PREFIX`` declarations; ``SELECT [DISTINCT] ?x ... | *``;
* basic graph patterns with ``.`` separators and ``a`` for rdf:type;
* ``FILTER`` with ``&& || !``, comparisons, ``REGEX``, ``CONTAINS``,
  ``STRSTARTS``, ``STR``, ``LCASE``, ``BOUND``;
* ``ORDER BY [ASC|DESC](?x)``, ``LIMIT``, ``OFFSET``.

Basic graph patterns are evaluated by the cost-based planner in
:mod:`repro.rdf.planner`: an index-nested-loop join over the store's
triple indexes, ordered once from store statistics and cached per query
shape, with filters pushed to the earliest point where their variables
are bound.  Solutions stream, so ``LIMIT`` without ``ORDER BY`` stops
evaluation early.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import SPARQLEvaluationError, SPARQLSyntaxError
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Literal, RDF, Term, Variable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rdf.planner import QueryPlanner

__all__ = [
    "TriplePattern", "FilterExpr", "SelectQuery", "parse_sparql",
    "iter_bgp", "sparql_select", "Solution",
]

#: One solution row: variable name -> bound term.
Solution = dict[str, Term]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern; any position may be a Variable."""

    s: Term
    p: Term
    o: Term

    def variables(self) -> set[str]:
        return {
            t.name for t in (self.s, self.p, self.o)
            if isinstance(t, Variable)
        }

    def __str__(self) -> str:
        return f"{_term_str(self.s)} {_term_str(self.p)} {_term_str(self.o)}"


def _term_str(t: Term) -> str:
    return t.n3() if hasattr(t, "n3") else str(t)


# ---------------------------------------------------------------------------
# Filter expression AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterExpr:
    """A boolean filter expression tree.

    ``op`` is one of ``and or not cmp call var term``; children depend on
    the op.  Evaluation happens against a solution mapping.
    """

    op: str
    args: tuple = ()

    def variables(self) -> set[str]:
        out: set[str] = set()
        if self.op == "var":
            out.add(self.args[0])
        else:
            for arg in self.args:
                if isinstance(arg, FilterExpr):
                    out |= arg.variables()
        return out

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, solution: Solution):
        if self.op == "term":
            return self.args[0]
        if self.op == "var":
            name = self.args[0]
            if name not in solution:
                raise SPARQLEvaluationError(f"unbound variable ?{name}")
            return solution[name]
        if self.op == "and":
            return all(a.evaluate(solution) for a in self.args)
        if self.op == "or":
            return any(a.evaluate(solution) for a in self.args)
        if self.op == "not":
            return not self.args[0].evaluate(solution)
        if self.op == "cmp":
            cmp_op, left, right = self.args
            return _compare(cmp_op, left.evaluate(solution),
                            right.evaluate(solution))
        if self.op == "call":
            name, *fn_args = self.args
            values = [a.evaluate(solution) for a in fn_args]
            return _call_function(name, values)
        raise SPARQLEvaluationError(f"unknown filter op {self.op!r}")


def _effective_value(term):
    if isinstance(term, Literal):
        return term.value
    if isinstance(term, IRI):
        return term.value
    return term


def _compare(op: str, left, right) -> bool:
    lv, rv = _effective_value(left), _effective_value(right)
    try:
        if op == "=":
            return lv == rv
        if op == "!=":
            return lv != rv
        if op == "<":
            return lv < rv
        if op == "<=":
            return lv <= rv
        if op == ">":
            return lv > rv
        if op == ">=":
            return lv >= rv
    except TypeError as exc:
        raise SPARQLEvaluationError(
            f"type error comparing {left!r} {op} {right!r}"
        ) from exc
    raise SPARQLEvaluationError(f"unknown comparison {op!r}")


def _call_function(name: str, values: list):
    name = name.upper()
    if name == "STR":
        return str(_effective_value(values[0]))
    if name == "LCASE":
        return str(_effective_value(values[0])).lower()
    if name == "UCASE":
        return str(_effective_value(values[0])).upper()
    if name == "CONTAINS":
        return str(_effective_value(values[1])) in str(
            _effective_value(values[0])
        )
    if name == "STRSTARTS":
        return str(_effective_value(values[0])).startswith(
            str(_effective_value(values[1]))
        )
    if name == "REGEX":
        flags = re.IGNORECASE if len(values) > 2 and "i" in str(
            _effective_value(values[2])
        ) else 0
        return re.search(
            str(_effective_value(values[1])),
            str(_effective_value(values[0])), flags
        ) is not None
    if name == "BOUND":
        return values[0] is not None
    if name == "LANG":
        term = values[0]
        return term.lang or "" if isinstance(term, Literal) else ""
    raise SPARQLEvaluationError(f"unknown function {name}()")


# ---------------------------------------------------------------------------
# Query AST
# ---------------------------------------------------------------------------

@dataclass
class SelectQuery:
    """A parsed SELECT query."""

    variables: list[str]          # empty list means SELECT *
    patterns: list[TriplePattern] = field(default_factory=list)
    filters: list[FilterExpr] = field(default_factory=list)
    distinct: bool = False
    order_by: list[tuple[str, bool]] = field(default_factory=list)
    limit: int | None = None
    offset: int = 0
    prefixes: dict[str, str] = field(default_factory=dict)

    def all_variables(self) -> set[str]:
        out: set[str] = set()
        for p in self.patterns:
            out |= p.variables()
        return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SPARQL_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<var>[?$][A-Za-z_][\w]*)
  | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<pname>[A-Za-z][\w-]*)?:(?P<plocal>[\w.,%-]*)
  | (?P<word>[A-Za-z][\w]*)
  | (?P<op><=|>=|!=|&&|\|\||[=<>!(){}.,;*])
  | (?P<space>\s+)
""",
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "DISTINCT", "WHERE", "FILTER", "ORDER", "BY", "ASC", "DESC",
    "LIMIT", "OFFSET", "PREFIX", "A", "TRUE", "FALSE",
}


class _SparqlParser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _SPARQL_TOKEN_RE.match(text, pos)
            if m is None:
                raise SPARQLSyntaxError(
                    f"unexpected character {text[pos]!r} at offset {pos}"
                )
            kind = m.lastgroup
            if kind == "plocal":
                kind = "pname_full"
            if kind not in ("space", "comment"):
                self.tokens.append((kind, m.group()))
            pos = m.end()
        self.pos = 0
        self.query = SelectQuery(variables=[])

    # -- token helpers --------------------------------------------------------

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise SPARQLSyntaxError("unexpected end of query")
        self.pos += 1
        return tok

    def accept_word(self, word: str) -> bool:
        tok = self.peek()
        if tok and tok[0] == "word" and tok[1].upper() == word:
            self.pos += 1
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.accept_word(word):
            tok = self.peek()
            raise SPARQLSyntaxError(
                f"expected {word}, got {tok[1] if tok else 'EOF'!r}"
            )

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            tok = self.peek()
            raise SPARQLSyntaxError(
                f"expected {op!r}, got {tok[1] if tok else 'EOF'!r}"
            )

    # -- grammar ----------------------------------------------------------------

    def parse(self) -> SelectQuery:
        while self.accept_word("PREFIX"):
            kind, value = self.next()
            if kind != "pname_full" or not value.endswith(":"):
                raise SPARQLSyntaxError(f"bad prefix name {value!r}")
            prefix = value[:-1]
            kind, iri = self.next()
            if kind != "iri":
                raise SPARQLSyntaxError(f"expected IRI, got {iri!r}")
            self.query.prefixes[prefix] = iri[1:-1]

        self.expect_word("SELECT")
        if self.accept_word("DISTINCT"):
            self.query.distinct = True
        if self.accept_op("*"):
            pass
        else:
            while True:
                tok = self.peek()
                if tok and tok[0] == "var":
                    self.query.variables.append(self.next()[1][1:])
                else:
                    break
            if not self.query.variables:
                raise SPARQLSyntaxError("SELECT needs variables or *")

        self.expect_word("WHERE")
        self.expect_op("{")
        self._parse_group()
        self._parse_solution_modifiers()
        if self.peek() is not None:
            raise SPARQLSyntaxError(
                f"trailing tokens after query: {self.peek()[1]!r}"
            )
        return self.query

    def _parse_group(self) -> None:
        while True:
            tok = self.peek()
            if tok is None:
                raise SPARQLSyntaxError("unterminated group: missing '}'")
            if tok == ("op", "}"):
                self.next()
                return
            if tok[0] == "word" and tok[1].upper() == "FILTER":
                self.next()
                self.expect_op("(")
                self.query.filters.append(self._parse_or())
                self.expect_op(")")
                self.accept_op(".")
                continue
            pattern = self._parse_pattern()
            self.query.patterns.append(pattern)
            self.accept_op(".")

    def _parse_pattern(self) -> TriplePattern:
        s = self._parse_term(position="subject")
        p = self._parse_term(position="predicate")
        o = self._parse_term(position="object")
        return TriplePattern(s, p, o)

    def _parse_term(self, position: str) -> Term:
        kind, value = self.next()
        if kind == "var":
            return Variable(value[1:])
        if kind == "iri":
            return IRI(value[1:-1])
        if kind == "pname_full":
            prefix, _, local = value.partition(":")
            if prefix not in self.query.prefixes:
                raise SPARQLSyntaxError(f"undeclared prefix {prefix!r}")
            return IRI(self.query.prefixes[prefix] + local)
        if kind == "word" and value == "a" and position == "predicate":
            return RDF.type
        if kind == "string":
            return Literal(value[1:-1].replace('\\"', '"'))
        if kind == "number":
            is_float = any(c in value for c in ".eE")
            return Literal(float(value) if is_float else int(value))
        if kind == "word" and value.upper() in ("TRUE", "FALSE"):
            return Literal(value.upper() == "TRUE")
        raise SPARQLSyntaxError(
            f"unexpected token {value!r} as pattern {position}"
        )

    # -- filter expressions -------------------------------------------------------

    def _parse_or(self) -> FilterExpr:
        left = self._parse_and()
        while self.accept_op("||"):
            right = self._parse_and()
            left = FilterExpr("or", (left, right))
        return left

    def _parse_and(self) -> FilterExpr:
        left = self._parse_unary()
        while self.accept_op("&&"):
            right = self._parse_unary()
            left = FilterExpr("and", (left, right))
        return left

    def _parse_unary(self) -> FilterExpr:
        if self.accept_op("!"):
            return FilterExpr("not", (self._parse_unary(),))
        if self.accept_op("("):
            inner = self._parse_or()
            self.expect_op(")")
            return self._maybe_comparison(inner)
        return self._maybe_comparison(self._parse_primary())

    def _maybe_comparison(self, left: FilterExpr) -> FilterExpr:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in ("=", "!=", "<", "<=", ">",
                                                 ">="):
            op = self.next()[1]
            right = self._parse_primary()
            return FilterExpr("cmp", (op, left, right))
        return left

    def _parse_primary(self) -> FilterExpr:
        kind, value = self.next()
        if kind == "var":
            return FilterExpr("var", (value[1:],))
        if kind == "string":
            return FilterExpr(
                "term", (Literal(value[1:-1].replace('\\"', '"')),)
            )
        if kind == "number":
            is_float = any(c in value for c in ".eE")
            num = float(value) if is_float else int(value)
            return FilterExpr("term", (Literal(num),))
        if kind == "iri":
            return FilterExpr("term", (IRI(value[1:-1]),))
        if kind == "pname_full":
            prefix, _, local = value.partition(":")
            if prefix not in self.query.prefixes:
                raise SPARQLSyntaxError(f"undeclared prefix {prefix!r}")
            return FilterExpr(
                "term", (IRI(self.query.prefixes[prefix] + local),)
            )
        if kind == "word":
            name = value
            self.expect_op("(")
            args: list[FilterExpr] = []
            if not self.accept_op(")"):
                while True:
                    args.append(self._parse_or())
                    if self.accept_op(","):
                        continue
                    self.expect_op(")")
                    break
            return FilterExpr("call", (name, *args))
        raise SPARQLSyntaxError(f"unexpected token {value!r} in filter")

    # -- solution modifiers ----------------------------------------------------------

    def _parse_solution_modifiers(self) -> None:
        if self.accept_word("ORDER"):
            self.expect_word("BY")
            while True:
                tok = self.peek()
                if tok is None:
                    break
                if tok[0] == "var":
                    self.query.order_by.append((self.next()[1][1:], False))
                elif tok[0] == "word" and tok[1].upper() in ("ASC", "DESC"):
                    descending = self.next()[1].upper() == "DESC"
                    self.expect_op("(")
                    kind, value = self.next()
                    if kind != "var":
                        raise SPARQLSyntaxError(
                            f"expected variable in ORDER BY, got {value!r}"
                        )
                    self.expect_op(")")
                    self.query.order_by.append((value[1:], descending))
                else:
                    break
            if not self.query.order_by:
                raise SPARQLSyntaxError("empty ORDER BY")
        if self.accept_word("LIMIT"):
            kind, value = self.next()
            if kind != "number":
                raise SPARQLSyntaxError(f"bad LIMIT {value!r}")
            self.query.limit = int(value)
        if self.accept_word("OFFSET"):
            kind, value = self.next()
            if kind != "number":
                raise SPARQLSyntaxError(f"bad OFFSET {value!r}")
            self.query.offset = int(value)


def parse_sparql(text: str) -> SelectQuery:
    """Parse a SPARQL SELECT query string."""
    return _SparqlParser(text).parse()


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

def iter_bgp(
    store: TripleStore,
    patterns: Iterable[TriplePattern],
    filters: Iterable[FilterExpr] = (),
    initial: Solution | None = None,
    planner: QueryPlanner | None = None,
) -> Iterator[Solution]:
    """Stream the solution mappings of a basic graph pattern.

    Evaluation runs through ``planner`` (and its plan cache), or the
    process-wide :func:`repro.rdf.planner.default_planner` when
    ``None``.
    """
    from repro.rdf.planner import default_planner  # planner imports us

    return (planner or default_planner()).solutions(
        store, patterns, filters, initial
    )


def _sort_key(term: Term):
    if isinstance(term, Literal):
        value = term.value
        if isinstance(value, bool):
            return (0, int(value))
        if isinstance(value, (int, float)):
            return (0, value)
        return (1, str(value))
    return (2, str(term))


def _distinct_stream(rows: Iterator[Solution]) -> Iterator[Solution]:
    """Incremental DISTINCT: first occurrence wins, order preserved."""
    seen: set[tuple] = set()
    for row in rows:
        key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
        if key not in seen:
            seen.add(key)
            yield row


def sparql_select(
    store: TripleStore,
    query: str | SelectQuery,
    planner: QueryPlanner | None = None,
) -> list[Solution]:
    """Run a SELECT query; returns solution rows (dicts of bindings).

    Rows are projected to the SELECT variables; ``SELECT *`` keeps every
    variable of the pattern.  Evaluation streams: without ``ORDER BY``
    the ``OFFSET``/``LIMIT`` window is sliced off the solution stream
    and the join stops early, and ``DISTINCT`` dedups incrementally
    rather than after materializing every row.  ``planner`` is
    forwarded to :func:`iter_bgp`.
    """
    if isinstance(query, str):
        query = parse_sparql(query)

    project = query.variables or sorted(query.all_variables())
    rows: Iterator[Solution] = (
        {name: sol[name] for name in project if name in sol}
        for sol in iter_bgp(
            store, query.patterns, query.filters, planner=planner
        )
    )
    if query.distinct:
        rows = _distinct_stream(rows)

    if not query.order_by:
        stop = (
            None if query.limit is None
            else query.offset + query.limit
        )
        return list(islice(rows, query.offset, stop))

    out = list(rows)
    for name, descending in reversed(query.order_by):
        out.sort(
            key=lambda row: _sort_key(row.get(name, Literal(""))),
            reverse=descending,
        )
    if query.offset:
        out = out[query.offset:]
    if query.limit is not None:
        out = out[: query.limit]
    return out
