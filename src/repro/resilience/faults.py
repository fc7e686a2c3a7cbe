"""Deterministic fault injection: scheduled and seeded-rate failures.

A :class:`FaultPlan` is a pure description of *when* to fail — on
scheduled call indices, or at a seeded rate keyed by whatever the
injector passes (question text and call index).  The decision function
is a hash, not process randomness, so a chaos run is bit-reproducible
for a fixed seed regardless of thread scheduling, as long as each key's
call sequence is itself sequential (which it is: one translation runs
on one worker).

:class:`FlakyInteraction` wraps the interaction provider (the user, the
unreliable party inside translation) and fails per plan, raising
:class:`~repro.errors.InjectedFault` by default or any configured
exception type (``RuntimeError`` exercises the serving layer's
unexpected-exception guard).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import InjectedFault
from repro.resilience.policy import seeded_uniform

__all__ = ["FaultPlan", "FlakyInteraction"]

#: Exception types nameable in a ``--inject-faults`` spec.
ERROR_TYPES: dict[str, type[BaseException]] = {
    "injected": InjectedFault,
    "runtime": RuntimeError,
    "timeout": TimeoutError,
    "connection": ConnectionError,
}


@dataclass(frozen=True)
class FaultPlan:
    """When and how the injected dependency fails.

    Attributes:
        rate: seeded probability of failure per call, in ``[0, 1]``.
        fail_indices: 0-based call indices that *always* fail
            (scheduled faults, for exact scripts in tests).
        seed: determinism seed for the rate draws.
        error_type: exception class raised for an injected fault.
        message: prefix of the raised error's message.
    """

    rate: float = 0.0
    fail_indices: frozenset[int] = field(default_factory=frozenset)
    seed: int = 0
    error_type: type[BaseException] = InjectedFault
    message: str = "injected fault"

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    def should_fail(self, index: int, key: tuple = ()) -> bool:
        """Deterministic failure decision for one call.

        ``index`` is the injector's call counter (drives scheduled
        faults); ``key`` feeds the seeded rate draw — injectors pass
        whatever makes the decision schedule-independent (question
        text + per-translation call index).
        """
        if index in self.fail_indices:
            return True
        if self.rate <= 0.0:
            return False
        return seeded_uniform(self.seed, *key) < self.rate

    def make_error(self, detail: str) -> BaseException:
        return self.error_type(f"{self.message}: {detail}")

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--inject-faults`` spec string.

        Comma-separated ``key=value`` pairs::

            rate=0.3,seed=7
            indices=0:2:5,error=runtime
            rate=0.25,seed=1,error=timeout,message=provider down

        ``indices`` is colon-separated.  Raises ``ValueError`` on an
        unknown key or malformed value (argparse-friendly).
        """
        kwargs: dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"fault spec entry {part!r} is not key=value"
                )
            name, _, value = part.partition("=")
            name = name.strip()
            value = value.strip()
            if name == "rate":
                kwargs["rate"] = float(value)
            elif name == "seed":
                kwargs["seed"] = int(value)
            elif name == "indices":
                kwargs["fail_indices"] = frozenset(
                    int(i) for i in value.split(":") if i
                )
            elif name == "error":
                if value not in ERROR_TYPES:
                    raise ValueError(
                        f"unknown error type {value!r}; choose from "
                        f"{sorted(ERROR_TYPES)}"
                    )
                kwargs["error_type"] = ERROR_TYPES[value]
            elif name == "message":
                kwargs["message"] = value
            else:
                raise ValueError(f"unknown fault spec key {name!r}")
        return cls(**kwargs)


class FlakyInteraction:
    """An interaction provider that fails per plan, else delegates.

    One instance per translation is the deterministic shape (the
    service keys it by the question text, so a question's fault
    schedule is independent of thread scheduling); a shared instance is
    still thread-safe, just keyed by global call order.
    """

    def __init__(self, inner, plan: FaultPlan, *, key: str = ""):
        self.inner = inner
        self.plan = plan
        self.key = key
        self.calls = 0
        self.failures = 0
        self._lock = threading.Lock()

    def ask(self, request) -> Any:
        with self._lock:
            index = self.calls
            self.calls += 1
            fail = self.plan.should_fail(index, key=(self.key, index))
            if fail:
                self.failures += 1
        if fail:
            raise self.plan.make_error(
                f"interaction call #{index} (key={self.key!r})"
            )
        return self.inner.ask(request)
