"""Worker configuration: everything a shard needs to build its stack.

A :class:`WorkerSpec` is the *picklable recipe* the shard manager ships
to each worker process (as a ``multiprocessing`` start argument — it
travels once, at spawn, not per request).  The worker entrypoint calls
:meth:`WorkerSpec.build_service` after the process comes up, so every
shard owns a private :class:`~repro.core.pipeline.NL2CM` and
:class:`~repro.service.TranslationService` — its own ontology indexes,
LRU translation cache, plan cache and metrics registry.  Nothing is
shared between shards except the frame protocol; that is the point
(no GIL, no cross-process locks).

Every field is a primitive, an optional
:class:`~repro.resilience.FaultPlan` (a frozen dataclass of
primitives) or ``None``, so the spec survives the ``spawn`` start
method's pickling on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.service import TranslationService

from repro.resilience import FaultPlan, ResilienceConfig

__all__ = ["WorkerSpec"]


@dataclass(frozen=True)
class WorkerSpec:
    """The per-shard service recipe.

    The shard's translator runs with the ``NL2CM`` defaults for
    query lint (``"error"``: a result with ERROR diagnostics is refused,
    so it is never cached, recorded for warm-up or replayed) and
    knowledge-base lint (``"warn"``).

    Attributes:
        cache_size: translation-LRU capacity; ``0`` disables caching
            (the cache-cold benchmark configuration).
        threads: thread fan-out of the shard-local ``translate_batch``.
            CPU-bound shards want ``1`` (the process tier provides the
            parallelism); shards whose interaction provider blocks on
            I/O may want more.
        retries: enables the resilience layer with this retry budget
            when not ``None`` (also enabled when ``faults`` is set).
        seed: determinism seed for retry jitter and fault injection.
        faults: optional deterministic :class:`FaultPlan` injected
            under the retry layer — chaos runs stay byte-reproducible
            because the plan is keyed by question text, not schedule.
        stage_timeout_ms: per-stage pipeline deadline inside the
            worker (independent of the front-end's per-request
            deadline).
        slow_log_ms: retain span trees of translations slower than
            this many milliseconds in the shard's slow-query log.
        debug_ops: accept diagnostic ops (``stall``) on the worker
            channel.  Off by default: a production worker must not
            sleep on demand.  The admission-control and deadline tests
            turn it on to occupy a shard deterministically.
    """

    cache_size: int = 256
    threads: int = 1
    retries: int | None = None
    seed: int = 0
    faults: FaultPlan | None = None
    stage_timeout_ms: float | None = None
    slow_log_ms: float | None = None
    debug_ops: bool = False

    def __post_init__(self):
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0 (0 disables)")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        # Checked here, before any worker is spawned: a spec that
        # fails inside the worker would leave the manager waiting on
        # a hello that never comes.
        if self.retries is not None and self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.stage_timeout_ms is not None and self.stage_timeout_ms < 0:
            raise ValueError("stage_timeout_ms must be >= 0")

    def resilience(self) -> ResilienceConfig | None:
        """The resilience config this spec implies, or ``None``."""
        return ResilienceConfig.from_flags(
            self.retries, self.seed, self.faults
        )

    def build_service(self) -> "TranslationService":
        """Construct the shard's full stack (called inside the worker)."""
        from repro.core.pipeline import NL2CM
        from repro.data.ontologies import load_merged_ontology
        from repro.service.service import TranslationService

        nl2cm = NL2CM(
            ontology=load_merged_ontology(),
            stage_timeout_ms=self.stage_timeout_ms,
        )
        return TranslationService(
            nl2cm,
            workers=self.threads,
            cache=self.cache_size if self.cache_size > 0 else None,
            slow_log=self.slow_log_ms,
            resilience=self.resilience(),
        )
