"""Fault tolerance for the serving layer (``repro.resilience``).

Inside translation, NL2CM's one unreliable party is the interaction
provider (a human answering clarification prompts, paper Section 4.1).
This dependency-free subsystem keeps one flaky answer from sinking a
whole batch:

* :func:`backoff_delay` — exponential backoff with *deterministic*
  seeded jitter (fixed schedule: 50 ms base, x2, 2 s cap, 0.5 jitter);
* :class:`Deadline` — per-stage time budgets, checked cooperatively as
  each pipeline stage's span closes;
* :class:`CircuitBreaker` — guards the provider (and, in the sharded
  tier, each shard) so a dead dependency is rejected fast instead of
  hammered;
* :class:`ResilientInteraction` — the one retry loop, with graceful
  degradation: after retries are exhausted (or while the breaker is
  open) the request is answered by
  :class:`~repro.ui.interaction.AutoInteraction` defaults, recorded as
  a :class:`DegradationEvent` and counted in ``repro_degraded_total``;
* :class:`FaultPlan` / :class:`FlakyInteraction` — the deterministic
  fault-injection harness behind the chaos suite and the CLI's
  ``--inject-faults``.

:class:`ResilienceConfig` bundles the settings for
``TranslationService(resilience=...)``; the CLI and the shard workers
build it with :meth:`ResilienceConfig.from_flags`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan, FlakyInteraction
from repro.resilience.policy import Deadline, backoff_delay, seeded_uniform
from repro.resilience.wrappers import DegradationEvent, ResilientInteraction

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "DegradationEvent",
    "FaultPlan",
    "FlakyInteraction",
    "ResilienceConfig",
    "ResilientInteraction",
    "backoff_delay",
    "seeded_uniform",
]


@dataclass
class ResilienceConfig:
    """Settings of the service's fault-tolerance layer.

    Attributes:
        retries: retry attempts per interaction after the first call.
        seed: determinism seed for the backoff jitter.
        faults: optional deterministic :class:`FaultPlan` injected
            *under* the retry layer (chaos testing and the CLI's
            ``--inject-faults``).
        breaker_threshold: consecutive provider failures that open the
            shared circuit (for 30 s); 0 disables the breaker.  With the
            breaker on, one question's failures can degrade another's,
            so a chaos batch is reproducible across thread counts only
            with 0 here or a single worker thread.
        clock / sleep: injectable time sources for the whole layer.
    """

    retries: int = 3
    seed: int = 0
    faults: FaultPlan | None = None
    breaker_threshold: int = 5
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError("retries must be non-negative")

    @classmethod
    def from_flags(
        cls, retries: int | None, seed: int, faults: FaultPlan | None,
    ) -> "ResilienceConfig | None":
        """The config ``--retries``/``--seed``/``--inject-faults`` imply.

        ``None`` (resilience off) unless a retry budget or a fault plan
        is given; a fault plan alone retries 3 times.
        """
        if retries is None and faults is None:
            return None
        return cls(
            retries=3 if retries is None else retries,
            seed=seed,
            faults=faults,
        )

    def breaker(self) -> CircuitBreaker | None:
        """A breaker per the config, or None when disabled."""
        if self.breaker_threshold <= 0:
            return None
        return CircuitBreaker(
            failure_threshold=self.breaker_threshold, clock=self.clock,
        )
