"""Exception hierarchy for the NL2CM reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  The sub-hierarchy mirrors
the system inventory: NLP substrate, RDF substrate, the OASSIS-QL language,
the translation pipeline, and the crowd-mining engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# NLP substrate
# ---------------------------------------------------------------------------

class NLPError(ReproError):
    """Base class for natural-language-processing errors."""


class TokenizationError(NLPError):
    """The input text could not be tokenized."""


class TaggingError(NLPError):
    """Part-of-speech tagging failed."""


class ParsingError(NLPError):
    """Dependency parsing failed to produce a graph."""


class GoldCorpusError(NLPError):
    """A gold POS/dependency annotation file is malformed.

    Raised by :mod:`repro.data.goldnlp` with the offending path and
    line number in the message, so a broken ``gold_nlp.conll`` inside a
    scenario pack surfaces as a typed error rather than a traceback.
    """


# ---------------------------------------------------------------------------
# RDF substrate
# ---------------------------------------------------------------------------

class RDFError(ReproError):
    """Base class for RDF data-model and store errors."""


class TurtleSyntaxError(RDFError):
    """A Turtle document could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FrozenStoreError(RDFError):
    """A mutation was attempted on a frozen :class:`TripleStore`.

    The embedded ontology snapshots are loaded once per process and
    shared through an ``lru_cache``; freezing them makes accidental
    mutation (which would poison every later caller) a loud, typed
    error instead of silent corruption.  Callers that genuinely need a
    mutable ontology take a :meth:`~repro.rdf.ontology.Ontology.copy`.
    """


# ---------------------------------------------------------------------------
# OASSIS-QL
# ---------------------------------------------------------------------------

class OassisQLError(ReproError):
    """Base class for OASSIS-QL language errors."""


class OassisQLSyntaxError(OassisQLError):
    """An OASSIS-QL query string could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OassisQLValidationError(OassisQLError):
    """A structurally well-formed query violates a semantic constraint."""


# ---------------------------------------------------------------------------
# Translation pipeline
# ---------------------------------------------------------------------------

class TranslationError(ReproError):
    """Base class for NL-to-OASSIS-QL translation errors."""


class VerificationError(TranslationError):
    """The input question is of an unsupported form.

    Carries the rephrasing tips the UI shows the user (paper Section 3).
    """

    def __init__(self, message: str, tips: tuple[str, ...] = ()):
        self.tips = tuple(tips)
        super().__init__(message)


class PatternSyntaxError(TranslationError):
    """An IX detection pattern definition could not be parsed."""


class CompositionError(TranslationError):
    """Query composition could not produce a well-formed query."""


class InteractionRequired(TranslationError):
    """Raised when a module needs user input but no provider can supply it."""


class InteractionProtocolError(TranslationError):
    """An interaction provider returned a malformed answer.

    The canonical case: a :class:`~repro.ui.interaction.VerifyIXRequest`
    over N spans answered with a list of the wrong length.  Truncating
    silently would keep unanswered IXs unconfirmed, so the pipeline
    refuses instead.
    """


class InvalidAnswerError(InteractionProtocolError, ValueError):
    """A user's raw console answer could not be parsed for a request.

    Subclasses :class:`ValueError` as well, so callers that treated the
    old bare ``int(raw)`` failures as ``ValueError`` keep working, while
    new callers can catch one typed :class:`ReproError` at the boundary.
    """


class UnexpectedTranslationError(TranslationError):
    """A non-:class:`ReproError` exception escaped the translator.

    The serving layer's last-resort guard: batch workers wrap any
    unexpected exception in this type so a bug in one question marks its
    items errored instead of sinking the whole batch.  Carries the
    original exception as ``cause``.
    """

    def __init__(self, message: str, cause: BaseException | None = None):
        self.cause = cause
        super().__init__(message)


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------

class LintConfigError(ReproError):
    """A lint rule registry was misconfigured (unknown rule id, ...)."""


class QueryLintError(TranslationError):
    """A translated query failed the static-analysis gate.

    Carries the full :class:`~repro.analysis.diagnostics.AnalysisReport`
    so callers can show every diagnostic, not just the first.
    """

    def __init__(self, report):
        self.report = report
        errors = report.errors
        message = f"query lint found {len(errors)} error(s)"
        if errors:
            first = errors[0]
            message += f": [{first.rule}] {first.message}"
        super().__init__(message)


class KBLintError(TranslationError):
    """The knowledge artifacts failed the static-analysis gate.

    Raised at :class:`~repro.core.pipeline.NL2CM` construction when the
    translator was built with ``kb_lint="error"`` and KBLint found
    ERROR-level diagnostics in the ontology, vocabularies or pattern
    bank.  Carries the full
    :class:`~repro.analysis.diagnostics.AnalysisReport`.
    """

    def __init__(self, report):
        self.report = report
        errors = report.errors
        message = f"knowledge-base lint found {len(errors)} error(s)"
        if errors:
            first = errors[0]
            message += f": [{first.rule}] {first.message}"
        super().__init__(message)


class ScenarioPackError(ReproError):
    """A scenario-pack directory could not be loaded (missing or
    malformed ontology, vocabulary, pattern or corpus artifacts)."""


# ---------------------------------------------------------------------------
# Resilience and fault injection
# ---------------------------------------------------------------------------

class DeadlineExceeded(ReproError):
    """A pipeline stage (or a whole operation) blew its time budget."""

    def __init__(
        self,
        message: str,
        *,
        stage: str | None = None,
        elapsed: float | None = None,
        budget: float | None = None,
    ):
        self.stage = stage
        self.elapsed = elapsed
        self.budget = budget
        super().__init__(message)


class InjectedFault(ReproError):
    """A fault deliberately injected by the deterministic fault harness."""


# ---------------------------------------------------------------------------
# Process-level serving tier
# ---------------------------------------------------------------------------

class ServingError(ReproError):
    """Base class for the multi-process serving tier's errors."""


class FrameProtocolError(ServingError):
    """A worker-channel frame violated the length-prefixed JSON protocol.

    Raised for an oversized length prefix, a payload that is not a JSON
    object, or a reply whose correlation id runs *ahead* of the request
    counter (replies may lag — a timed-out request's answer is drained
    and discarded — but never lead).
    """


class ChannelClosedError(ServingError):
    """The peer closed the worker channel mid-conversation.

    On the dispatcher side this is the crash signal: the worker process
    died (or exited) with requests outstanding, and the shard manager
    reacts by restarting the worker and retrying the in-flight request
    once.
    """


class AdmissionRejected(ServingError):
    """The front-end shed this request instead of queueing it.

    Carries the shard, the shedding ``reason`` (``"queue_full"`` when
    the shard's bounded pending queue is at capacity, ``"breaker_open"``
    when the shard's dispatch circuit breaker is open) and the
    ``retry_after`` hint in seconds that the HTTP layer surfaces as a
    ``Retry-After`` header on the 429 response.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int | None = None,
        reason: str = "queue_full",
        retry_after: float = 1.0,
    ):
        self.shard = shard
        self.reason = reason
        self.retry_after = retry_after
        super().__init__(message)


class ShardTimeoutError(ServingError):
    """A worker did not answer a request within its deadline.

    The worker is *not* assumed dead (slow is not crashed): the reply,
    when it eventually arrives, is drained and discarded by correlation
    id, and the shard's circuit breaker records the failure.  Carries
    the shard and the budget that expired.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int | None = None,
        budget: float | None = None,
    ):
        self.shard = shard
        self.budget = budget
        super().__init__(message)


class WorkerCrashedError(ServingError):
    """A shard's worker process died and the one restart-retry failed.

    The request could not be served; the shard manager has already
    restarted the worker (or is doing so), so later requests to the
    same keyspace are expected to succeed.
    """

    def __init__(self, message: str, *, shard: int | None = None):
        self.shard = shard
        super().__init__(message)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

class MetricsError(ReproError):
    """A metrics registry was misused (bad name, label or re-registration)."""


# ---------------------------------------------------------------------------
# Crowd mining engine
# ---------------------------------------------------------------------------

class CrowdError(ReproError):
    """Base class for crowd-simulation and OASSIS-engine errors."""


class BudgetExhausted(CrowdError):
    """The crowd-task budget ran out before mining converged."""

    def __init__(self, message: str, tasks_used: int):
        self.tasks_used = tasks_used
        super().__init__(message)


class EngineError(CrowdError):
    """The OASSIS query engine failed to evaluate a query."""
