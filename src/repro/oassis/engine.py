"""OASSIS-QL evaluation over an ontology plus a crowd.

Evaluation plan (paper Section 2.1 semantics):

1. **WHERE** — the SPARQL-like selection runs over the ontology's triple
   store, producing candidate variable bindings.
2. **SATISFYING** — each binding instantiates every subclause into a
   ground fact-set; the crowd estimates each fact-set's support:

   * *threshold* subclauses use sequential sampling with a normal-
     approximation confidence interval: members are asked one by one
     until the interval clears the threshold on either side (or the
     per-fact-set budget runs out, in which case the point estimate
     decides);
   * *top-k* subclauses estimate the support of every candidate
     fact-set with a fixed sample and keep the bindings of the k best
     (k worst for ``ASC``).

3. The query returns the bindings that satisfy **all** subclauses —
   "significant variable bindings" — with their estimated supports.

The engine also exposes the generated :class:`CrowdTask` stream, which
is what the demo shows on the OASSIS crowd monitor.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.crowd.model import FactSet, verbalize_fact_set
from repro.crowd.simulator import SimulatedCrowd
from repro.errors import BudgetExhausted, EngineError
from repro.obs.metrics import MetricsRegistry
from repro.oassisql.ast import (
    Anything,
    OassisQuery,
    QueryTriple,
    SatisfyingClause,
    SupportThreshold,
    TopK,
)
from repro.rdf.ontology import Ontology
from repro.rdf.planner import (
    QueryPlanner,
    TriplePattern,
    default_planner,
    iter_bgp,
)
from repro.rdf.terms import IRI, Literal, Variable

__all__ = [
    "EngineConfig", "CrowdTask", "BindingOutcome", "QueryResult",
    "OassisEngine",
]

#: One candidate variable binding: name -> ground term.
Binding = dict[str, object]


@dataclass(frozen=True)
class EngineConfig:
    """Engine tuning knobs.

    Attributes:
        min_sample: members asked before the sequential test may stop.
        max_sample: per-fact-set budget of the sequential test.
        topk_sample: fixed sample size used for top-k estimation.
        confidence_z: z-value of the decision interval (1.96 = 95%).
        task_budget: total crowd-task budget per query (None = no cap).
    """

    min_sample: int = 8
    max_sample: int = 60
    topk_sample: int = 25
    confidence_z: float = 1.96
    task_budget: int | None = None


@dataclass(frozen=True)
class CrowdTask:
    """One question posed to one crowd member."""

    member_id: int
    fact_set: FactSet
    question: str
    answer: float


@dataclass
class BindingOutcome:
    """Per-binding evaluation record."""

    binding: Binding
    supports: dict[int, float] = field(default_factory=dict)
    accepted: bool = False

    def support_of(self, clause_index: int) -> float:
        return self.supports[clause_index]


@dataclass
class QueryResult:
    """The engine's output for one query."""

    outcomes: list[BindingOutcome]
    tasks: list[CrowdTask]
    where_bindings: int

    @property
    def accepted(self) -> list[BindingOutcome]:
        return [o for o in self.outcomes if o.accepted]

    @property
    def tasks_used(self) -> int:
        return len(self.tasks)

    def bindings(self) -> list[Binding]:
        """The significant variable bindings, best-supported first.

        Ranked by mean estimated support across the subclauses, so a
        binding strong on every mined pattern precedes one that barely
        cleared a threshold.
        """
        def mean_support(o: BindingOutcome) -> float:
            if not o.supports:
                return 0.0
            return sum(o.supports.values()) / len(o.supports)

        ranked = sorted(self.accepted, key=lambda o: -mean_support(o))
        return [o.binding for o in ranked]


class OassisEngine:
    """Evaluates OASSIS-QL queries over an ontology and a crowd."""

    def __init__(
        self,
        ontology: Ontology,
        crowd: SimulatedCrowd,
        config: EngineConfig | None = None,
        registry: MetricsRegistry | None = None,
        planner: QueryPlanner | None = None,
    ):
        self.ontology = ontology
        self.crowd = crowd
        self.config = config or EngineConfig()
        # WHERE evaluator: a dedicated QueryPlanner (its own plan cache
        # and counters), or the process-wide shared one.
        self.planner = planner or default_planner()
        # (member_id, fact_set.key()) -> answer; the crowd model is
        # deterministic per member, so repeated subclauses and repeated
        # queries need not recompute the simulated answer.
        self._answer_cache: dict[tuple[int, str], float] = {}
        self.answer_cache_hits = 0
        self.answer_cache_misses = 0
        self._m_evaluations = None
        self._m_eval_seconds = None
        self._m_tasks = None
        self._m_answer_cache = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Mirror the engine's counters into ``registry``.

        Sharing the translation service's registry puts evaluation
        metrics on the same scrape endpoint as translation metrics.
        """
        self._m_evaluations = registry.counter(
            "oassis_evaluations_total",
            "OASSIS-QL queries evaluated, by outcome (ok/error).",
            labelnames=("outcome",),
        )
        self._m_eval_seconds = registry.histogram(
            "oassis_evaluation_seconds",
            "Wall-clock seconds per OASSIS-QL evaluation "
            "(errors included).",
        )
        self._m_tasks = registry.counter(
            "oassis_crowd_tasks_total",
            "Crowd tasks issued across evaluations.",
        )
        self._m_answer_cache = registry.counter(
            "oassis_answer_cache_total",
            "Memoized crowd-answer lookups by result (hit/miss).",
            labelnames=("result",),
        )

    # -- public API ---------------------------------------------------------------

    def evaluate(self, query: OassisQuery) -> QueryResult:
        """Evaluate ``query``; returns outcomes, tasks and statistics.

        Variables that occur only in SATISFYING are *open*: they are
        instantiated by the crowd itself (crowd-mining in the style of
        the OASSIS companion work) — modeled by unifying the open
        pattern against the fact-sets the simulated crowd knows about.

        Raises:
            EngineError: when a clause cannot be grounded at all.
            BudgetExhausted: when ``config.task_budget`` runs out.
        """
        if self._m_evaluations is None:
            return self._evaluate(query)
        start = time.perf_counter()
        try:
            result = self._evaluate(query)
        except Exception:
            self._m_evaluations.labels(outcome="error").inc()
            self._m_eval_seconds.observe(time.perf_counter() - start)
            raise
        self._m_evaluations.labels(outcome="ok").inc()
        self._m_eval_seconds.observe(time.perf_counter() - start)
        return result

    def _evaluate(self, query: OassisQuery) -> QueryResult:
        query.validate()
        tasks: list[CrowdTask] = []
        outcomes: list[BindingOutcome] = []
        where_seen = [0]

        def stream_bases():
            # WHERE bindings flow from the (streaming) BGP evaluator
            # straight into outcomes — the first SATISFYING clause pulls
            # candidates one by one, so support estimation never waits
            # on (or materializes) the full WHERE result set.
            for binding in self._iter_where_bindings(query):
                where_seen[0] += 1
                outcomes.append(BindingOutcome(binding=binding))
                yield len(outcomes) - 1

        alive = stream_bases()
        for clause_index, clause in enumerate(query.satisfying):
            if isinstance(alive, list) and not alive:
                break
            expanded = self._expanded(clause, alive, outcomes)
            if isinstance(clause.qualifier, SupportThreshold):
                survivors = []
                for i, fact_set in expanded:
                    support, ok = self._threshold_test(
                        fact_set, clause.qualifier.threshold, tasks
                    )
                    outcomes[i].supports[clause_index] = support
                    if ok:
                        survivors.append(i)
                alive = survivors
            else:
                alive = self._topk_select(
                    clause.qualifier, expanded, outcomes,
                    clause_index, tasks,
                )

        # Without SATISFYING clauses `alive` is still the lazy base
        # stream; listing it drains the WHERE evaluation.
        for i in list(alive):
            outcomes[i].accepted = True
        return QueryResult(
            outcomes=outcomes, tasks=tasks,
            where_bindings=where_seen[0],
        )

    def _expanded(self, clause: SatisfyingClause, alive, outcomes):
        """Stream ``(outcome index, fact-set)`` groundings of a clause.

        Open-variable groundings clone their base outcome (with the
        crowd-supplied extra bindings merged in) and the clone, not the
        base, carries the fact-set forward — same bookkeeping as the
        eager expansion, minus the intermediate lists.
        """
        for i in alive:
            for fact_set, extra in self._groundings(
                clause, outcomes[i].binding
            ):
                if extra:
                    merged = dict(outcomes[i].binding)
                    merged.update(extra)
                    outcomes.append(BindingOutcome(
                        binding=merged,
                        supports=dict(outcomes[i].supports),
                    ))
                    yield (len(outcomes) - 1, fact_set)
                else:
                    yield (i, fact_set)

    # -- clause grounding (incl. open patterns) ------------------------------------

    def _groundings(
        self, clause: SatisfyingClause, binding: Binding
    ) -> list[tuple[FactSet, Binding]]:
        """All ways to ground ``clause`` under ``binding``.

        A fully-bound clause grounds one way.  A clause with open
        variables is unified against every fact-set the crowd's world
        contains, each successful unification contributing the extra
        bindings — the crowd "fills in" the open positions.
        """
        free = clause.variables() - set(binding)
        if not free:
            return [(self._ground(clause, binding), {})]

        results: list[tuple[FactSet, Binding]] = []
        seen: set[str] = set()
        for candidate in self.crowd.ground_truth.supports:
            extra = self._unify(clause, binding, candidate)
            if extra is None:
                continue
            merged = dict(binding)
            merged.update(extra)
            fact_set = self._ground(clause, merged)
            if fact_set.key() not in seen:
                seen.add(fact_set.key())
                results.append((fact_set, extra))
        return results

    def _unify(
        self,
        clause: SatisfyingClause,
        binding: Binding,
        candidate: FactSet,
    ) -> Binding | None:
        """Match the clause's triples against a candidate fact-set.

        Returns bindings for the open variables, or None.  Requires a
        bijective triple matching (fact-sets are tiny, so backtracking
        over permutations is fine).
        """
        pattern = [
            tuple(
                binding.get(t.name, t) if isinstance(t, Variable) else t
                for t in triple.terms()
            )
            for triple in clause.triples
        ]
        facts = list(candidate.triples)
        if len(pattern) != len(facts):
            return None

        def match_terms(p, f, env):
            if isinstance(p, Variable):
                if p.name in env:
                    return env if env[p.name] == f else None
                if isinstance(f, Anything):
                    return None
                new = dict(env)
                new[p.name] = f
                return new
            if isinstance(p, Anything):
                return env if isinstance(f, Anything) else None
            return env if p == f else None

        def backtrack(idx: int, used: set[int], env):
            if idx == len(pattern):
                return env
            for j, fact in enumerate(facts):
                if j in used:
                    continue
                cur = env
                for p, f in zip(pattern[idx], fact.terms()):
                    cur = match_terms(p, f, cur)
                    if cur is None:
                        break
                if cur is None:
                    continue
                found = backtrack(idx + 1, used | {j}, cur)
                if found is not None:
                    return found
            return None

        return backtrack(0, set(), {})

    # -- WHERE -------------------------------------------------------------------

    def _iter_where_bindings(self, query: OassisQuery):
        if not query.where:
            # No general selection: the only binding is the empty one.
            yield {}
            return
        patterns = [self._to_pattern(t) for t in query.where]
        # The store holds each triple once, so a BGP never repeats a
        # solution.
        for sol in iter_bgp(
            self.ontology.store, patterns, planner=self.planner
        ):
            yield dict(sol)

    @staticmethod
    def _to_pattern(triple: QueryTriple) -> TriplePattern:
        def convert(term):
            if isinstance(term, Anything):
                # '[]' in WHERE behaves like a fresh unnamed variable.
                raise EngineError(
                    "'[]' is not allowed in the WHERE clause"
                )
            return term

        return TriplePattern(
            convert(triple.s), convert(triple.p), convert(triple.o)
        )

    # -- grounding -----------------------------------------------------------------

    def _ground(
        self, clause: SatisfyingClause, binding: Binding
    ) -> FactSet:
        def substitute(term):
            if isinstance(term, Variable):
                if term.name not in binding:
                    raise EngineError(
                        f"variable ${term.name} of the SATISFYING clause "
                        "is unbound — it does not occur in WHERE"
                    )
                return binding[term.name]
            return term

        return FactSet(tuple(
            QueryTriple(
                substitute(t.s), substitute(t.p), substitute(t.o)
            )
            for t in clause.triples
        ))

    # -- crowd access ---------------------------------------------------------------

    def _ask(self, fact_set: FactSet, question: str, sample_index: int,
             tasks: list[CrowdTask]) -> float:
        """One task; callers verbalize ``question`` once per fact-set."""
        budget = self.config.task_budget
        if budget is not None and len(tasks) >= budget:
            raise BudgetExhausted(
                f"crowd-task budget of {budget} exhausted",
                tasks_used=len(tasks),
            )
        member = self.crowd.member(sample_index % self.crowd.size)
        key = (member.member_id, fact_set.key())
        answer = self._answer_cache.get(key)
        if answer is None:
            answer = self.crowd.ask(member, fact_set)
            self._answer_cache[key] = answer
            self.answer_cache_misses += 1
            if self._m_answer_cache is not None:
                self._m_answer_cache.labels(result="miss").inc()
        else:
            self.answer_cache_hits += 1
            if self._m_answer_cache is not None:
                self._m_answer_cache.labels(result="hit").inc()
        if self._m_tasks is not None:
            self._m_tasks.inc()
        tasks.append(CrowdTask(
            member_id=member.member_id,
            fact_set=fact_set,
            question=question,
            answer=answer,
        ))
        return answer

    # -- threshold clauses -------------------------------------------------------------

    def _threshold_test(
        self,
        fact_set: FactSet,
        threshold: float,
        tasks: list[CrowdTask],
    ) -> tuple[float, bool]:
        """Sequential support test; returns (estimate, support >= θ)."""
        cfg = self.config
        question = verbalize_fact_set(fact_set, self.ontology)
        total = 0.0
        total_sq = 0.0
        n = 0
        while n < cfg.max_sample and n < self.crowd.size:
            answer = self._ask(fact_set, question, n, tasks)
            total += answer
            total_sq += answer * answer
            n += 1
            if n < cfg.min_sample:
                continue
            mean = total / n
            variance = max(total_sq / n - mean * mean, 1e-9)
            half_width = cfg.confidence_z * math.sqrt(variance / n)
            if mean - half_width > threshold:
                return mean, True
            if mean + half_width < threshold:
                return mean, False
        mean = total / n if n else 0.0
        return mean, mean >= threshold

    # -- top-k clauses -------------------------------------------------------------------

    def _topk_select(
        self,
        qualifier: TopK,
        expanded,
        outcomes: list[BindingOutcome],
        clause_index: int,
        tasks: list[CrowdTask],
    ) -> list[int]:
        cfg = self.config
        sample = min(cfg.topk_sample, self.crowd.size)
        estimates: dict[int, float] = {}
        # Distinct bindings may ground to the same fact-set; estimate
        # each fact-set once.  ``expanded`` streams (index, fact-set)
        # pairs; ranking inherently needs every candidate, so this is
        # the one clause kind that drains its input.
        by_fact_set: dict[FactSet, float] = {}
        for i, fact_set in expanded:
            if fact_set not in by_fact_set:
                question = verbalize_fact_set(fact_set, self.ontology)
                answers = [
                    self._ask(fact_set, question, j, tasks)
                    for j in range(sample)
                ]
                by_fact_set[fact_set] = (
                    sum(answers) / len(answers) if answers else 0.0
                )
            estimates[i] = by_fact_set[fact_set]
            outcomes[i].supports[clause_index] = estimates[i]

        reverse = qualifier.descending
        ranked = sorted(
            estimates, key=lambda i: estimates[i], reverse=reverse
        )
        return ranked[: qualifier.k]
