"""The NL2CM translator: orchestration of the full pipeline (Figure 2).

The stages run top-down exactly as the architecture figure draws them:

1. verification;
2. NL parsing (POS tags + dependency graph);
3. IX detection (IXFinder -> user verification of uncertain IXs ->
   IXCreator);
4. general query generation (FREyA stand-in, may ask disambiguation);
5. individual triple creation;
6. query composition (may ask LIMIT/THRESHOLD/projection);
7. query lint (static analysis of the composed query; see
   :mod:`repro.analysis`).

Every stage runs inside a span of a :class:`TranslationTrace` — a true
parent/child span tree (see :mod:`repro.obs.tracing`) that the
admin-mode monitor of the demo (Section 4.2) prints to give "a peek
under the hood", and that the serving layer aggregates into metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import ContextManager, Iterator

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.kblint import OntologyLint
from repro.analysis.patternlint import PATTERN_RULES, PatternLint
from repro.analysis.registry import RuleRegistry
from repro.analysis.querylint import QueryLint
from repro.core.compose import ComposedQuery, QueryComposer
from repro.core.ixdetect import IX, IXCreator, IXFinder
from repro.core.ixpatterns import IXPattern
from repro.core.triples import IndividualTripleCreator
from repro.core.verification import VerificationResult, Verifier
from repro.data.ontologies import load_merged_ontology
from repro.data.vocabularies import VocabularyRegistry
from repro.errors import (
    InteractionProtocolError,
    KBLintError,
    QueryLintError,
    VerificationError,
)
from repro.obs.tracing import Span, SpanRecorder
from repro.resilience.policy import Deadline
from repro.freya.generator import FeedbackStore, GeneralQueryGenerator
from repro.nlp.depparse import DependencyParser
from repro.nlp.graph import DepGraph
from repro.oassisql.ast import OassisQuery
from repro.oassisql.printer import print_oassisql
from repro.rdf.ontology import Ontology
from repro.rdf.planner import QueryPlanner
from repro.ui.interaction import (
    AutoInteraction,
    InteractionProvider,
    VerifyIXRequest,
)

__all__ = ["NL2CM", "TranslationResult", "TranslationTrace"]


@lru_cache(maxsize=1)
def _default_ontology_lint() -> OntologyLint:
    """The default-configured OntologyLint every translator shares.

    The pipeline never mutates lint configuration, so one instance (and
    one rule registry) serves every construction; callers that want
    custom configuration build their own analyzers.
    """
    return OntologyLint()


@lru_cache(maxsize=1)
def _default_pattern_registry() -> RuleRegistry:
    """Default pattern-rule registry shared by every translator."""
    return RuleRegistry(PATTERN_RULES)


#: Name of the per-request root span that wraps the whole pipeline.
ROOT_SPAN = "translate"


def _ix_summary(graph: DepGraph, ixs: list[IX]) -> str:
    """The ix-detection span's artifact: one line per kept IX."""
    return "\n".join(
        f"{ix.kind}[{','.join(sorted(ix.types))}] {ix.span_text(graph)!r}"
        for ix in ixs
    ) or "(no individual expressions)"


def _listing(triples: tuple, empty: str) -> str:
    """A triple-creation span's artifact: one triple per line."""
    return "\n".join(str(t) for t in triples) or empty


class TranslationTrace(SpanRecorder):
    """One translation's span tree (the admin-mode trace).

    A :class:`~repro.obs.tracing.SpanRecorder` whose root span,
    ``"translate"``, covers the whole pipeline; each Figure-2 stage is
    a child, and ``ix-detection`` parents its ``ix-finder`` /
    ``ix-creator`` / ``ix-verification`` sub-steps.  Because a parent's
    duration *covers* its children (monotonic start/end, not a sum),
    nothing is ever double-counted: there is no subsumption list to
    maintain, and summing the **leaf** spans can never exceed the root.
    """

    #: Interactions answered by the resilience fallback during this
    #: translation (set by the serving layer; empty when resilience is
    #: off or nothing failed).  Each entry is a
    #: :class:`~repro.resilience.DegradationEvent`.
    degraded_events: tuple = ()

    @property
    def degraded(self) -> bool:
        """True when any interaction was answered by the fallback."""
        return bool(self.degraded_events)

    def stages(self) -> list[str]:
        """Span names in start order (the root span included)."""
        return [s.name for s in self.spans]

    def render(self) -> str:
        """Stage blocks, indented by tree depth, in start order."""
        return "\n\n".join(
            s.render(depth=self._depth(s)) for s in self.spans
        )

    def total_seconds(self) -> float:
        """True wall-clock total: the root span's duration."""
        root = self.root
        if root is not None:
            return root.elapsed
        # Compatibility with hand-built traces that never opened a
        # root: top-level spans are disjoint, so their sum is the wall.
        return sum(
            s.elapsed for s in self.spans if s.parent_id is None
        )


@dataclass
class TranslationResult:
    """Everything a translation produced."""

    text: str
    query: OassisQuery
    query_text: str
    graph: DepGraph
    ixs: list[IX]
    composed: ComposedQuery
    trace: TranslationTrace
    #: The QueryLint report of the composed query (None when the
    #: translator was built with ``lint="off"``).
    lint: AnalysisReport | None = None

    @property
    def variable_phrases(self) -> dict[str, str]:
        """Which sentence phrase each query variable stands for."""
        return self.composed.variable_phrases


class NL2CM:
    """The NL-to-crowd-mining translator.

    Args:
        ontology: the general-knowledge ontology; defaults to the merged
            LinkedGeoData/DBpedia/food snapshots, the demo configuration.
        interaction: default answer provider; :class:`AutoInteraction`
            (administrator defaults, no user) if omitted.  Can be
            overridden per call.
        patterns: IX detection patterns; the packaged defaults if
            omitted.
        vocabularies: vocabulary registry for the patterns.
        feedback: FREyA-style disambiguation feedback store, shared
            across translations.
        lint: what to do with the post-composition QueryLint stage:
            ``"error"`` (default) raises :class:`QueryLintError` when the
            composed query has ERROR-level diagnostics, ``"warn"`` keeps
            the report on the result without raising, ``"off"`` skips
            the stage entirely.
        kb_lint: construction-time validation of the knowledge
            artifacts this translator will trust — OntologyLint over
            the ontology plus PatternLint over the pattern bank and
            vocabularies.  ``"warn"`` (default) keeps the merged report
            on :attr:`kb_lint_report`; ``"error"`` additionally raises
            :class:`~repro.errors.KBLintError` when the report has
            ERROR-level diagnostics (fail-fast, before the first
            translation can go wrong); ``"off"`` skips the check
            (``kb_lint_report`` stays ``None``).  Repeated
            constructions over the same cached ontology reuse the
            memoized OntologyLint analysis.
        stage_timeout_ms: per-stage time budget.  Each stage span gets a
            :class:`~repro.resilience.Deadline`; a stage that exceeds it
            raises :class:`~repro.errors.DeadlineExceeded` (a typed
            ``ReproError``) naming the stage.  The check is cooperative
            — a synchronous stage cannot be interrupted mid-flight, so
            the deadline fires when the stage's span closes.  The
            aggregate ``ix-detection`` span shares the same budget (it
            covers its three sub-steps).  ``None`` (default) disables
            the checks entirely, keeping them off the hot path.
    """

    #: Legal values of the ``lint`` constructor argument.
    LINT_MODES = ("error", "warn", "off")

    #: Legal values of the ``kb_lint`` constructor argument.
    KB_LINT_MODES = ("error", "warn", "off")

    def __init__(
        self,
        ontology: Ontology | None = None,
        interaction: InteractionProvider | None = None,
        patterns: list[IXPattern] | None = None,
        vocabularies: VocabularyRegistry | None = None,
        feedback: FeedbackStore | None = None,
        lint: str = "error",
        kb_lint: str = "warn",
        stage_timeout_ms: float | None = None,
    ):
        if lint not in self.LINT_MODES:
            raise ValueError(
                f"lint must be one of {self.LINT_MODES}, got {lint!r}"
            )
        if kb_lint not in self.KB_LINT_MODES:
            raise ValueError(
                f"kb_lint must be one of {self.KB_LINT_MODES}, "
                f"got {kb_lint!r}"
            )
        if stage_timeout_ms is not None and stage_timeout_ms < 0:
            raise ValueError("stage_timeout_ms must be non-negative")
        self.lint_mode = lint
        # The BGP planner for ontology queries made on behalf of this
        # translator (e.g. the OASSIS engine that executes its output).
        # A dedicated planner, not the process-wide default, so this
        # translator's plan-cache counters are its own — the service
        # layer surfaces them per instance.
        self.planner = QueryPlanner()
        self.stage_timeout = (
            stage_timeout_ms / 1000.0 if stage_timeout_ms is not None
            else None
        )
        self.ontology = ontology or load_merged_ontology()
        self.interaction = interaction or AutoInteraction()
        self.verifier = Verifier()
        self.parser = DependencyParser()
        self.finder = IXFinder(patterns, vocabularies)
        self.creator = IXCreator(
            ontology=self.ontology,
            vocabularies=self.finder.vocabularies,
        )
        self.generator = GeneralQueryGenerator(
            self.ontology, feedback or FeedbackStore()
        )
        self.triple_creator = IndividualTripleCreator(
            vocabularies=self.finder.vocabularies
        )
        self.composer = QueryComposer()
        self.linter = QueryLint(ontology=self.ontology)
        self.kb_lint_mode = kb_lint
        #: Merged ontology + pattern-bank report (None with "off").
        self.kb_lint_report: AnalysisReport | None = None
        if kb_lint != "off":
            self.kb_lint_report = self._lint_knowledge_artifacts()
            if kb_lint == "error" and self.kb_lint_report.has_errors:
                raise KBLintError(self.kb_lint_report)

    def _lint_knowledge_artifacts(self) -> AnalysisReport:
        """OntologyLint + PatternLint over this translator's artifacts.

        One merged report: the ontology diagnostics first (memoized per
        cached store, so repeated constructions pay once per process),
        then the pattern bank checked against the finder's resolved
        vocabulary registry.
        """
        report = _default_ontology_lint().lint(
            self.ontology, subject="knowledge base"
        )
        report.extend(
            PatternLint(
                vocabularies=self.finder.vocabularies,
                registry=_default_pattern_registry(),
            ).lint(self.finder.patterns, subject="knowledge base")
        )
        return report

    # -- public API ------------------------------------------------------------

    def verify(self, text: str) -> VerificationResult:
        """Run only the verification step (used by the UI upfront)."""
        return self.verifier.verify(text)

    def _stage(
        self, trace: TranslationTrace, name: str
    ) -> ContextManager[Span]:
        """A stage span with an optional per-stage deadline attached.

        When a stage timeout is configured, a fresh
        :class:`~repro.resilience.Deadline` rides on the span
        (``span.deadline``) so the trace carries the budget, and is
        checked as the span closes — the cooperative variant of a
        timeout for a synchronous stage.  Without one, the stage is the
        bare span: no second context manager per stage.

        Raises:
            DeadlineExceeded: when the stage overran its budget.
        """
        if self.stage_timeout is None:
            return trace.span(name)
        return self._deadline_stage(trace, name)

    @contextmanager
    def _deadline_stage(
        self, trace: TranslationTrace, name: str
    ) -> Iterator[Span]:
        with trace.span(name) as span:
            span.deadline = Deadline(
                self.stage_timeout, clock=time.perf_counter
            )
            yield span
        span.deadline.check(name)

    def translate(
        self,
        text: str,
        interaction: InteractionProvider | None = None,
    ) -> TranslationResult:
        """Translate an NL request into a well-formed OASSIS-QL query.

        Raises:
            VerificationError: for unsupported question forms (carries
                the rephrasing tips).
            TranslationError: when no query can be composed.
            QueryLintError: when the composed query has ERROR-level
                lint diagnostics and the translator was built with
                ``lint="error"`` (the default).  The raised error
                carries the full :class:`AnalysisReport`.
        """
        provider = interaction or self.interaction
        trace = TranslationTrace()

        with trace.span(ROOT_SPAN) as root:
            root.artifact = text

            with self._stage(trace, "verification") as span:
                verification = self.verifier.verify(text)
                span.artifact = verification
            if not verification.ok:
                raise VerificationError(
                    verification.message, tips=verification.tips
                )

            with self._stage(trace, "nl-parsing") as span:
                graph = self.parser.parse(
                    text, tokens=verification.tokens
                )
                span.defer(graph.pretty)

            # The ix-detection span *covers* its finder, creator and
            # user-verification children — parent/child spans replace
            # the old "aggregated entry + subsumption list" accounting.
            with self._stage(trace, "ix-detection") as detection:
                with self._stage(trace, "ix-finder") as span:
                    matches = self.finder.find(graph)
                    span.artifact = matches
                with self._stage(trace, "ix-creator") as span:
                    ixs = self.creator.create(graph, matches)
                    span.artifact = ixs
                with self._stage(trace, "ix-verification") as span:
                    kept = self._verify_uncertain(graph, ixs, provider)
                    span.artifact = (
                        f"{len(ixs) - len(kept)} uncertain IX(s) "
                        f"rejected by the user"
                        if len(kept) != len(ixs)
                        else "(all IXs kept)"
                    )
                    ixs = kept
                detection.defer(partial(_ix_summary, graph, ixs))

            with self._stage(trace, "general-query-generator") as span:
                general = self.generator.generate(graph, provider)
                span.defer(partial(
                    _listing, tuple(general.triples), "(no general triples)"
                ))

            with self._stage(trace, "individual-triple-creation") as span:
                individual = self.triple_creator.create(graph, ixs)
                span.defer(partial(
                    _listing, tuple(individual), "(no individual triples)"
                ))

            with self._stage(trace, "query-composition") as span:
                composed = self.composer.compose(
                    graph, ixs, individual, general, provider
                )
                span.artifact = composed

            lint_report: AnalysisReport | None = None
            if self.lint_mode != "off":
                with self._stage(trace, "query-lint") as span:
                    lint_report = self.linter.lint(composed.query)
                    span.artifact = (
                        lint_report.render() if lint_report.diagnostics
                        else "(no diagnostics)"
                    )
                if self.lint_mode == "error" and lint_report.has_errors:
                    raise QueryLintError(lint_report)

            with self._stage(trace, "final-query") as span:
                query_text = print_oassisql(composed.query)
                span.artifact = query_text

        return TranslationResult(
            text=text,
            query=composed.query,
            query_text=query_text,
            graph=graph,
            ixs=ixs,
            composed=composed,
            trace=trace,
            lint=lint_report,
        )

    # -- internals ----------------------------------------------------------------

    def _verify_uncertain(
        self,
        graph: DepGraph,
        ixs: list[IX],
        provider: InteractionProvider,
    ) -> list[IX]:
        """Ask the user to confirm IXs found by uncertain patterns.

        Raises:
            InteractionProtocolError: when the provider answers with
                the wrong number of booleans.  Silently ``zip``-ing
                would leave unanswered IXs unconfirmed — a truncated
                answer is a provider bug and must surface as one.
        """
        uncertain = [ix for ix in ixs if ix.uncertain]
        if not uncertain:
            return ixs
        request = VerifyIXRequest(
            spans=tuple(ix.span_text(graph) for ix in uncertain),
            sentence=graph.sentence,
        )
        answers = list(provider.ask(request))
        if len(answers) != len(uncertain):
            raise InteractionProtocolError(
                f"IX verification needs {len(uncertain)} answer(s) for "
                f"spans {list(request.spans)}, but the provider "
                f"returned {len(answers)}"
            )
        rejected = {
            id(ix) for ix, keep in zip(uncertain, answers) if not keep
        }
        return [ix for ix in ixs if id(ix) not in rejected]
