"""Basic graph pattern (BGP) evaluation: statistics-driven join
ordering, shape-keyed plan caching, and compiled step execution.

This is the evaluator behind the OASSIS-QL ``WHERE`` clause ("a
SPARQL-like selection query on the ontology", paper Section 2.1): a
BGP is a list of :class:`TriplePattern`, and :func:`iter_bgp` streams
its solution mappings through a :class:`QueryPlanner`.  Planning is a
first-class, persistent activity:

* **Cost model** — join order is chosen *once per query shape* from the
  store's incremental cardinality statistics
  (:meth:`~repro.rdf.store.TripleStore.estimate`) with bound-variable
  propagation: after a pattern is placed, its variables count as bound
  when estimating the rest.  No per-binding re-scoring, no ``count()``
  index sums.
* **Shape-keyed plan cache** — plans are cached under the query's
  *shape*: variables canonicalized to first-occurrence indexes and
  subject/object constants abstracted to their stat class (a generic
  bound-constant marker — the estimate depends only on the co-occurring
  predicate, so any constant in that position reuses the plan).
  Predicates keep their identity because statistics are per-predicate.
  The cache is a bounded LRU with hit/miss/invalidation counters;
  entries are invalidated by the store's mutation :attr:`epoch`.
* **Compiled execution** — each plan step is compiled to a specialized
  closure that knows which index to probe and which positions to bind,
  with no per-binding ``isinstance`` dispatch.  Execution is an
  explicit-stack generator, so solutions **stream**: a consumer that
  stops early stops the join, and join depth never touches the
  interpreter's recursion limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.rdf.store import TripleStore
from repro.rdf.terms import Term, Variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Plan", "PlanExplain", "PlannerStats", "QueryPlanner", "Solution",
    "StepExplain", "TriplePattern", "default_planner", "iter_bgp",
    "query_shape",
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


#: Position states inside a compiled plan step: ``C`` constant, ``B``
#: variable bound by an earlier step (or the initial bindings), ``N``
#: new variable first bound here, ``D`` duplicate of a variable that
#: another position of the *same* pattern binds.
_CONST, _BOUND, _NEW, _DUP = "C", "B", "N", "D"


def query_shape(
    patterns: Iterable[TriplePattern],
    initial_vars: Iterable[str] = (),
) -> tuple:
    """The canonical shape of a BGP: the plan-cache key.

    Variables are renamed to first-occurrence indexes, subject/object
    constants are abstracted to a single bound-constant stat class, and
    predicates stay concrete (the cost model is per-predicate).  Two
    queries with the same shape get the same join order, so they share
    one cached plan.  The initially-bound variables contribute their
    canonical indexes, since they change which positions are bound.
    """
    var_ids: dict[str, int] = {}

    def vid(name: str) -> int:
        got = var_ids.get(name)
        if got is None:
            got = var_ids[name] = len(var_ids)
        return got

    shaped = []
    for pat in patterns:
        row = []
        for position, term in enumerate((pat.s, pat.p, pat.o)):
            if isinstance(term, Variable):
                row.append(("v", vid(term.name)))
            elif position == 1:
                row.append(("p", term))
            else:
                row.append(("c",))
        shaped.append(tuple(row))
    shaped_initial = tuple(
        sorted(var_ids[name] for name in initial_vars if name in var_ids)
    )
    return (tuple(shaped), shaped_initial)


@dataclass(frozen=True)
class Plan:
    """A shape-level plan: join order, position states, estimates.

    The plan never references concrete constants or variable names —
    those come from the actual patterns at bind time — which is what
    lets one cached plan serve every query of its shape.
    """

    shape: tuple
    order: tuple[int, ...]
    states: tuple[str, ...]
    estimates: tuple[float, ...]


@dataclass(frozen=True)
class PlannerStats:
    """Plan-cache counter snapshot."""

    hits: int
    misses: int
    invalidations: int
    compiled: int
    cache_size: int
    cache_capacity: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.invalidations

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class StepExplain:
    """One plan step's estimate vs. measured reality."""

    pattern: str
    states: str
    estimated: float
    input_rows: int = 0
    output_rows: int = 0


@dataclass
class PlanExplain:
    """What ``--explain`` shows: order, estimates, actuals, cache fate."""

    cache: str
    order: tuple[int, ...]
    steps: list[StepExplain]
    rows: int

    def render(self) -> str:
        lines = ["== query plan =="]
        lines.append(f"plan cache: {self.cache}")
        lines.append(
            "join order: "
            + (" -> ".join(f"p{i}" for i in self.order) or "(empty)")
        )
        if self.steps:
            headers = ["step", "pattern", "states", "est", "in", "out"]
            rows = [
                [str(n + 1), s.pattern, s.states, f"{s.estimated:.1f}",
                 str(s.input_rows), str(s.output_rows)]
                for n, s in enumerate(self.steps)
            ]
            widths = [
                max(len(headers[i]), *(len(r[i]) for r in rows))
                for i in range(len(headers))
            ]

            def line(cells: list[str]) -> str:
                return "  ".join(
                    c.ljust(w) for c, w in zip(cells, widths)
                )

            lines.append(line(headers))
            lines.append(line(["-" * w for w in widths]))
            lines.extend(line(r) for r in rows)
        lines.append(f"rows: {self.rows}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Planning: cost-based join ordering over the store statistics
# ---------------------------------------------------------------------------

def _estimate(store: TripleStore, pat: TriplePattern,
              bound: set[str]) -> float:
    """Estimated match count of ``pat`` given already-bound variables."""
    s_b = not isinstance(pat.s, Variable) or pat.s.name in bound
    o_b = not isinstance(pat.o, Variable) or pat.o.name in bound
    if isinstance(pat.p, Variable):
        est = store.estimate(s_b, None, o_b)
        if pat.p.name in bound:
            # A bound variable predicate is *one* predicate out of all.
            est /= max(1, store.predicate_count())
        return est
    return store.estimate(s_b, pat.p, o_b)


def _position_states(pat: TriplePattern, bound: set[str]) -> str:
    """Per-position states of a pattern placed with ``bound`` vars."""
    states = []
    new_here: dict[str, int] = {}
    for term in (pat.s, pat.p, pat.o):
        if not isinstance(term, Variable):
            states.append(_CONST)
        elif term.name in bound:
            states.append(_BOUND)
        elif term.name in new_here:
            states.append(_DUP)
        else:
            new_here[term.name] = 1
            states.append(_NEW)
    return "".join(states)


def _build_plan(
    store: TripleStore,
    patterns: list[TriplePattern],
    initial_vars: frozenset[str],
    shape: tuple,
) -> Plan:
    bound = set(initial_vars)
    remaining = list(range(len(patterns)))
    order: list[int] = []
    states: list[str] = []
    estimates: list[float] = []
    while remaining:
        best_i = remaining[0]
        best_est = _estimate(store, patterns[best_i], bound)
        for i in remaining[1:]:
            est = _estimate(store, patterns[i], bound)
            if est < best_est:
                best_i, best_est = i, est
        remaining.remove(best_i)
        order.append(best_i)
        estimates.append(best_est)
        states.append(_position_states(patterns[best_i], bound))
        bound |= patterns[best_i].variables()

    return Plan(
        shape=shape,
        order=tuple(order),
        states=tuple(states),
        estimates=tuple(estimates),
    )


# ---------------------------------------------------------------------------
# Compilation: one specialized closure per plan step
# ---------------------------------------------------------------------------

#: A compiled step: solution -> iterator of extended solutions.
StepFn = Callable[[Solution], Iterator[Solution]]


def _compile_step(
    store: TripleStore,
    pattern: TriplePattern,
    states: str,
) -> StepFn:
    """Compile one plan step against concrete pattern terms.

    The closure captures the store index to probe and the concrete
    constants; ``B`` positions resolve from the solution at call time.
    The common shapes get specialized closures that walk one index row
    directly; patterns with duplicate variables or an open predicate
    next to open subject *and* object fall back to a generic probe.
    """
    spo, pos, osp = store._spo, store._pos, store._osp
    s_t, p_t, o_t = pattern.s, pattern.p, pattern.o
    s_st, p_st, o_st = states

    def known(term: Term, state: str):
        """(constant, name): exactly one is set for a known position."""
        if state == _CONST:
            return term, None
        return None, term.name  # _BOUND

    knowns = (
        s_st in (_CONST, _BOUND),
        p_st in (_CONST, _BOUND),
        o_st in (_CONST, _BOUND),
    )
    if _DUP not in states:
        if knowns == (True, True, False):
            s_c, s_n = known(s_t, s_st)
            p_c, p_n = known(p_t, p_st)
            o_name = o_t.name

            def step(solution: Solution) -> Iterator[Solution]:
                row = spo.get(
                    s_c if s_c is not None else solution[s_n]
                )
                if row:
                    for o in row.get(
                        p_c if p_c is not None else solution[p_n], ()
                    ):
                        new = dict(solution)
                        new[o_name] = o
                        yield new

            return step
        if knowns == (False, True, True):
            p_c, p_n = known(p_t, p_st)
            o_c, o_n = known(o_t, o_st)
            s_name = s_t.name

            def step(solution: Solution) -> Iterator[Solution]:
                row = pos.get(
                    p_c if p_c is not None else solution[p_n]
                )
                if row:
                    for s in row.get(
                        o_c if o_c is not None else solution[o_n], ()
                    ):
                        new = dict(solution)
                        new[s_name] = s
                        yield new

            return step
        if knowns == (True, False, True):
            s_c, s_n = known(s_t, s_st)
            o_c, o_n = known(o_t, o_st)
            p_name = p_t.name

            def step(solution: Solution) -> Iterator[Solution]:
                row = osp.get(
                    o_c if o_c is not None else solution[o_n]
                )
                if row:
                    for p in row.get(
                        s_c if s_c is not None else solution[s_n], ()
                    ):
                        new = dict(solution)
                        new[p_name] = p
                        yield new

            return step
        if knowns == (True, True, True):
            s_c, s_n = known(s_t, s_st)
            p_c, p_n = known(p_t, p_st)
            o_c, o_n = known(o_t, o_st)

            def step(solution: Solution) -> Iterator[Solution]:
                row = spo.get(
                    s_c if s_c is not None else solution[s_n]
                )
                if row is not None:
                    o = o_c if o_c is not None else solution[o_n]
                    p = p_c if p_c is not None else solution[p_n]
                    if o in row.get(p, ()):
                        yield solution

            return step
        if knowns == (False, True, False):
            p_c, p_n = known(p_t, p_st)
            s_name, o_name = s_t.name, o_t.name

            def step(solution: Solution) -> Iterator[Solution]:
                row = pos.get(
                    p_c if p_c is not None else solution[p_n]
                )
                if row:
                    for o, subjects in row.items():
                        for s in subjects:
                            new = dict(solution)
                            new[s_name] = s
                            new[o_name] = o
                            yield new

            return step
        if knowns == (True, False, False):
            s_c, s_n = known(s_t, s_st)
            p_name, o_name = p_t.name, o_t.name

            def step(solution: Solution) -> Iterator[Solution]:
                row = spo.get(
                    s_c if s_c is not None else solution[s_n]
                )
                if row:
                    for p, objs in row.items():
                        for o in objs:
                            new = dict(solution)
                            new[p_name] = p
                            new[o_name] = o
                            yield new

            return step
        if knowns == (False, False, True):
            o_c, o_n = known(o_t, o_st)
            s_name, p_name = s_t.name, p_t.name

            def step(solution: Solution) -> Iterator[Solution]:
                row = osp.get(
                    o_c if o_c is not None else solution[o_n]
                )
                if row:
                    for s, preds in row.items():
                        for p in preds:
                            new = dict(solution)
                            new[s_name] = s
                            new[p_name] = p
                            yield new

            return step

    # Generic fallback: fully-open scans and duplicate-variable
    # patterns (e.g. ``?x kb:near ?x``) — rare enough that the
    # interpretive probe is fine.
    def step(solution: Solution) -> Iterator[Solution]:
        def resolve(term: Term):
            if isinstance(term, Variable):
                return solution.get(term.name)
            return term

        s, p, o = resolve(s_t), resolve(p_t), resolve(o_t)
        for ts, tp, to in store.triples(s, p, o):
            new = dict(solution)
            ok = True
            for term, value in ((s_t, ts), (p_t, tp), (o_t, to)):
                if isinstance(term, Variable):
                    if new.get(term.name, value) != value:
                        ok = False
                        break
                    new[term.name] = value
            if ok:
                yield new

    return step


def _execute(steps: list[StepFn], solution: Solution
             ) -> Iterator[Solution]:
    """Explicit-stack nested-loop join: streams, never recurses."""
    n = len(steps)
    if not n:
        yield solution
        return
    stack = [steps[0](solution)]
    while stack:
        depth = len(stack)
        sol = next(stack[-1], None)
        if sol is None:
            stack.pop()
        elif depth == n:
            yield sol
        else:
            stack.append(steps[depth](sol))


@dataclass
class BoundPlan:
    """A cached plan bound to one query's concrete patterns."""

    plan: Plan
    steps: list[StepFn]
    cache_outcome: str

    def solutions(self, initial: Solution | None = None
                  ) -> Iterator[Solution]:
        return _execute(self.steps, dict(initial or {}))


# ---------------------------------------------------------------------------
# The planner: cost model + bounded LRU plan cache + counters
# ---------------------------------------------------------------------------

class QueryPlanner:
    """Plans, caches and compiles BGP evaluations for triple stores.

    Thread-safe: the cache is guarded by a lock; plan construction runs
    outside it (two threads may race to compile the same shape — both
    plans are correct, last writer wins).  One planner may serve many
    stores: keys include the store's process-unique token, and entries
    are dropped (counted as invalidations) when the store's mutation
    epoch moved since the plan was cached.
    """

    def __init__(self, cache_size: int = 256):
        if cache_size < 1:
            raise ValueError("plan cache size must be >= 1")
        self.cache_size = cache_size
        self._cache: OrderedDict[tuple, tuple[int, Plan]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.compiled = 0
        self._registries: list[MetricsRegistry] = []

    # -- observability -----------------------------------------------------------

    def bind_registry(self, registry: "MetricsRegistry") -> None:
        """Expose the plan-cache counters through ``registry``.

        Lock-free callbacks over this planner's own counters, so every
        registry it is bound to reads what :meth:`snapshot` reports.
        Binding is idempotent per registry.
        """
        if any(bound is registry for bound in self._registries):
            return
        self._registries.append(registry)
        registry.counter(
            "planner_plan_cache_total",
            "Plan-cache lookups by result (hit/miss/invalidated).",
            labelnames=("result",),
            callback=lambda: {
                ("hit",): self.hits,
                ("miss",): self.misses,
                ("invalidated",): self.invalidations,
            },
        )
        registry.counter(
            "planner_plans_compiled_total",
            "Query plans compiled (cache misses + invalidations).",
            callback=lambda: self.compiled,
        )
        registry.gauge(
            "planner_plan_cache_size",
            "Query plans currently cached.",
            callback=lambda: float(len(self._cache)),
        )

    def snapshot(self) -> PlannerStats:
        with self._lock:
            return PlannerStats(
                hits=self.hits,
                misses=self.misses,
                invalidations=self.invalidations,
                compiled=self.compiled,
                cache_size=len(self._cache),
                cache_capacity=self.cache_size,
            )

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._cache.clear()

    # -- planning ----------------------------------------------------------------

    def plan(
        self,
        store: TripleStore,
        patterns: Iterable[TriplePattern],
        initial_vars: Iterable[str] = (),
    ) -> BoundPlan:
        """The compiled plan for a BGP, from cache when shape-fresh."""
        patterns = list(patterns)
        initial_vars = frozenset(initial_vars)
        shape = query_shape(patterns, initial_vars)
        key = (store.token, shape)
        epoch = store.epoch
        plan: Plan | None = None
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                cached_epoch, cached_plan = entry
                if cached_epoch == epoch:
                    self.hits += 1
                    outcome = "hit"
                    plan = cached_plan
                    self._cache.move_to_end(key)
                else:
                    self.invalidations += 1
                    outcome = "invalidated"
                    del self._cache[key]
            else:
                self.misses += 1
                outcome = "miss"
        if plan is None:
            plan = _build_plan(store, patterns, initial_vars, shape)
            with self._lock:
                self.compiled += 1
                self._cache[key] = (epoch, plan)
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        steps = [
            _compile_step(store, patterns[i], states)
            for i, states in zip(plan.order, plan.states)
        ]
        return BoundPlan(plan=plan, steps=steps, cache_outcome=outcome)

    def solutions(
        self,
        store: TripleStore,
        patterns: Iterable[TriplePattern],
        initial: Solution | None = None,
    ) -> Iterator[Solution]:
        """Plan (cached) and stream the BGP's solution mappings."""
        return self.plan(store, patterns, initial or ()).solutions(initial)

    # -- explain -----------------------------------------------------------------

    def explain(
        self,
        store: TripleStore,
        patterns: Iterable[TriplePattern],
        initial: Solution | None = None,
    ) -> PlanExplain:
        """Run the plan with per-step instrumentation.

        Returns the chosen join order, the estimated cardinality of
        every step next to the rows it actually produced, and whether
        this request hit the plan cache.
        """
        patterns = list(patterns)
        bound = self.plan(store, patterns, initial or ())
        plan = bound.plan
        step_stats = [
            StepExplain(
                pattern=str(patterns[plan.order[n]]),
                states=plan.states[n],
                estimated=plan.estimates[n],
            )
            for n in range(len(plan.order))
        ]

        def instrument(n: int, fn: StepFn) -> StepFn:
            stat = step_stats[n]

            def wrapped(solution: Solution) -> Iterator[Solution]:
                stat.input_rows += 1
                for sol in fn(solution):
                    stat.output_rows += 1
                    yield sol

            return wrapped

        bound.steps = [
            instrument(n, fn) for n, fn in enumerate(bound.steps)
        ]
        rows = sum(1 for _ in bound.solutions(initial))
        return PlanExplain(
            cache=bound.cache_outcome,
            order=plan.order,
            steps=step_stats,
            rows=rows,
        )


_DEFAULT_PLANNER = QueryPlanner()


def default_planner() -> QueryPlanner:
    """The process-wide shared planner (used when none is given)."""
    return _DEFAULT_PLANNER


def iter_bgp(
    store: TripleStore,
    patterns: Iterable[TriplePattern],
    initial: Solution | None = None,
    planner: QueryPlanner | None = None,
) -> Iterator[Solution]:
    """Stream the solution mappings of a basic graph pattern.

    Evaluation runs through ``planner`` (and its plan cache), or the
    process-wide :func:`default_planner` when ``None``.
    """
    return (planner or _DEFAULT_PLANNER).solutions(store, patterns, initial)
