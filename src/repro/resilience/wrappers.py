"""Retry and graceful degradation around the interaction provider.

:class:`ResilientInteraction` guards an interaction provider with the
seeded backoff of :func:`~repro.resilience.policy.backoff_delay` and an
optional shared circuit breaker, and — after retries are exhausted or
while the breaker is open — *degrades gracefully*: it answers from a
fallback provider (normally :class:`~repro.ui.interaction.AutoInteraction`
defaults, the paper's "skip the interaction point" configuration)
instead of failing the whole translation, and records a
:class:`DegradationEvent` per skipped interaction.  One wrapper serves
one translation, so its events map 1:1 onto a request's trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.policy import RETRY_ON, backoff_delay

__all__ = ["DegradationEvent", "ResilientInteraction"]


@dataclass(frozen=True)
class DegradationEvent:
    """One interaction answered by the fallback instead of the provider."""

    request: str            # request type name, e.g. "LimitRequest"
    reason: str             # "circuit-open" | "retries-exhausted"
    error: str | None = None  # repr of the last provider error, if any


class ResilientInteraction:
    """Retry + breaker + graceful degradation around a provider.

    Args:
        inner: the guarded provider.
        fallback: provider answering degraded requests.
        breaker: optional shared breaker (one per service, guarding the
            provider dependency across all worker threads).
        retries: retry attempts per request after the first call.
        seed: determinism seed for the backoff jitter.
        sleep: pause function, injectable so tests never sleep.
        on_retry / on_rejected: counter hooks for the serving layer
            (called outside any lock held here).

    Deliberately defines no ``cache_fingerprint``: the wrapper is
    applied *after* cache lookup, and the service refuses to cache
    degraded results, so resilience never poisons the cache.
    """

    def __init__(
        self,
        inner,
        *,
        fallback,
        breaker: CircuitBreaker | None = None,
        retries: int = 3,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[], None] | None = None,
        on_rejected: Callable[[], None] | None = None,
    ):
        self.inner = inner
        self.fallback = fallback
        self.breaker = breaker
        self.max_retries = retries
        self.seed = seed
        self.sleep = sleep
        self.on_retry = on_retry
        self.on_rejected = on_rejected
        self.events: list[DegradationEvent] = []
        self.retries = 0

    @property
    def degraded(self) -> bool:
        return bool(self.events)

    def ask(self, request) -> Any:
        if self.breaker is not None and not self.breaker.allow():
            if self.on_rejected is not None:
                self.on_rejected()
            return self._degrade(request, "circuit-open", None)
        attempt = 0
        while True:
            try:
                answer = self.inner.ask(request)
            except Exception as exc:
                if self.breaker is not None:
                    self.breaker.record_failure()
                if self._may_retry(exc, attempt):
                    self._pause(request, attempt)
                    attempt += 1
                    continue
                return self._degrade(request, "retries-exhausted", exc)
            if self.breaker is not None:
                self.breaker.record_success()
            return answer

    # -- internals -----------------------------------------------------------

    def _may_retry(self, exc: BaseException, attempt: int) -> bool:
        if not isinstance(exc, RETRY_ON) or attempt >= self.max_retries:
            return False
        if self.breaker is not None and not self.breaker.allow():
            if self.on_rejected is not None:
                self.on_rejected()
            return False
        return True

    def _pause(self, request, attempt: int) -> None:
        self.retries += 1
        if self.on_retry is not None:
            self.on_retry()
        self.sleep(backoff_delay(attempt, type(request).__name__, self.seed))

    def _degrade(self, request, reason: str, error: BaseException | None):
        answer = self.fallback.ask(request)
        self.events.append(DegradationEvent(
            request=type(request).__name__,
            reason=reason,
            error=repr(error) if error is not None else None,
        ))
        return answer
