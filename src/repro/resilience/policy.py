"""Backoff and deadlines: the timing substrate of fault tolerance.

Everything here is deterministic by design:

* backoff jitter is *seeded* — computed from a hash of
  ``(seed, key, attempt)``, never from process randomness — so a retry
  schedule is bit-reproducible under a fixed seed;
* a :class:`Deadline` takes its clock as an argument, so tests drive
  time forward explicitly.

A :class:`Deadline` is a point on a monotonic clock; the pipeline
attaches one per stage span (cooperative: a synchronous stage cannot be
interrupted mid-flight, so the deadline is checked when the stage's
span closes).
"""

from __future__ import annotations

import hashlib
import struct
import time
from typing import Callable

from repro.errors import DeadlineExceeded, ReproError

__all__ = ["Deadline", "backoff_delay", "seeded_uniform"]

#: The backoff schedule: the pause before retry *i* is
#: ``min(MAX_DELAY, BASE_DELAY * MULTIPLIER**i) * (1 - JITTER * u)``,
#: seconds, with ``u`` the seeded draw of :func:`backoff_delay`.
BASE_DELAY = 0.05
MULTIPLIER = 2.0
MAX_DELAY = 2.0
JITTER = 0.5

#: Exception types worth retrying: every library error plus the
#: transient-I/O shapes a real interaction transport would raise
#: (``ConnectionError`` and ``TimeoutError`` are ``OSError``\ s).
#: Anything else is a programming error and is not retried.
RETRY_ON: tuple[type[BaseException], ...] = (ReproError, OSError)


def seeded_uniform(*key_parts: object) -> float:
    """A deterministic uniform draw in ``[0, 1)`` keyed by ``key_parts``.

    Hash-based (the same construction as the crowd simulator's noise),
    so any call site can be sampled lazily, in any order, on any thread,
    and still reproduce exactly.
    """
    digest = hashlib.sha256(
        "\x1f".join(str(p) for p in key_parts).encode("utf-8")
    ).digest()
    (a,) = struct.unpack("<Q", digest[:8])
    return a / 2.0 ** 64


def backoff_delay(attempt: int, key: object = "", seed: int = 0) -> float:
    """The pause, in seconds, before retry number ``attempt`` (0-based).

    Exponential and capped, with the jitter drawn from
    ``seeded_uniform(seed, key, attempt)``: the pause lies in
    ``[raw * (1 - JITTER), raw]`` and is the same on every run.
    """
    raw = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** attempt)
    return raw * (1.0 - JITTER * seeded_uniform(seed, key, attempt))


class Deadline:
    """An absolute time budget on an injectable monotonic clock."""

    __slots__ = ("budget", "_clock", "_expires_at")

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if seconds < 0:
            raise ValueError("deadline budget must be non-negative")
        self.budget = float(seconds)
        self._clock = clock
        self._expires_at = clock() + float(seconds)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self._expires_at - self._clock()

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        remaining = self.remaining()
        if remaining <= 0:
            elapsed = self.budget - remaining
            raise DeadlineExceeded(
                f"{what} exceeded its {self.budget * 1000:.1f} ms "
                f"deadline ({elapsed * 1000:.1f} ms elapsed)",
                stage=what,
                elapsed=elapsed,
                budget=self.budget,
            )
