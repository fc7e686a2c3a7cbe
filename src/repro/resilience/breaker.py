"""A thread-safe circuit breaker guarding an unreliable dependency.

The classic three-state machine:

* **closed** — calls flow through; consecutive failures are counted and
  a success resets the count;
* **open** — after ``failure_threshold`` consecutive failures the
  breaker rejects every call (:meth:`allow` returns False) for
  ``recovery_seconds``, so a dead interaction provider or shard is not
  hammered while it is down;
* **half-open** — once the recovery window elapses, one probe call is
  let through; its success closes the breaker, its failure re-opens it
  for another window.

The clock is injectable, so the whole state machine is testable without
sleeping.  All transitions happen under one lock — the breaker is
shared by every worker thread of a batch.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Failure-counting breaker with a half-open recovery probe."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    #: Numeric encoding for the state gauge (``nl2cm_breaker_state``).
    STATE_CODES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_seconds < 0:
            raise ValueError("recovery_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self.clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        # A half-open probe is out; cleared whenever the breaker closes
        # or opens, so it is always False on entering half-open.
        self._probing = False

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def state_code(self) -> float:
        """Numeric state for gauges: 0 closed, 1 half-open, 2 open."""
        return self.STATE_CODES[self.state]

    def _maybe_half_open(self) -> None:
        """Open -> half-open once the recovery window elapses (locked)."""
        if (
            self._state == self.OPEN
            and self.clock() - self._opened_at >= self.recovery_seconds
        ):
            self._state = self.HALF_OPEN

    # -- protocol ------------------------------------------------------------

    def allow(self) -> bool:
        """May the caller try the dependency right now?

        In half-open state one caller is admitted as the probe; the
        rest are rejected until it reports an outcome.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if (
                self._state == self.HALF_OPEN
                or self._failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self.clock()
                self._probing = False
