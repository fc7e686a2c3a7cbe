"""The simulated crowd population.

Each member has a latent personal value for every fact-set — their own
habit frequency or agreement level — drawn deterministically around the
ground-truth support.  Determinism matters twice: experiments are
reproducible under a seed, and a member asked the same question twice
gives the same answer (as a consistent human would).

The sampling model: member ``m``'s personal value for fact-set ``f``
with true support ``s`` is::

    value = clip(s + bias_m + noise_{m,f}, 0, 1)

where ``bias_m ~ N(0, noise/2)`` is the member's disposition (some
people do everything more) and ``noise_{m,f} ~ N(0, noise)`` is
idiosyncratic.  With ``noise -> 0`` every member reports the truth; the
experiments sweep it.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass

from repro.crowd.model import FactSet, GroundTruth

__all__ = ["CrowdMember", "SimulatedCrowd"]

#: numpy, bound at the first draw rather than at import: a process that
#: only translates never loads it, and a drawing one imports it once.
_np = None


def _numpy():
    global _np
    import numpy

    _np = numpy
    return numpy


def _unit_gaussian(*key_parts: object) -> float:
    """A deterministic standard-normal draw keyed by ``key_parts``.

    Hash-based so that (member, fact-set) pairs can be sampled lazily in
    any order and still reproduce.
    """
    np = _np or _numpy()
    digest = hashlib.sha256(
        "\x1f".join(str(p) for p in key_parts).encode("utf-8")
    ).digest()
    # Two 32-bit uniforms -> one Box-Muller normal.  Keep it on numpy:
    # math.log/math.cos round differently and would shift some answers.
    a, b = struct.unpack("<II", digest[:8])
    u1 = (a + 1) / 4294967297.0
    u2 = (b + 1) / 4294967297.0
    return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))


@dataclass(frozen=True)
class CrowdMember:
    """One simulated crowd member."""

    member_id: int
    bias: float

    def personal_value(
        self, fact_set: FactSet, truth: float, noise: float, seed: int
    ) -> float:
        """The member's latent frequency/agreement for ``fact_set``."""
        idiosyncratic = noise * _unit_gaussian(
            seed, self.member_id, fact_set.key()
        )
        return min(max(truth + self.bias + idiosyncratic, 0.0), 1.0)


class SimulatedCrowd:
    """A population of crowd members over a ground truth.

    Args:
        ground_truth: true support per fact-set.
        size: population size.
        noise: answer noise level (std of the idiosyncratic term).
        seed: determinism seed.
    """

    def __init__(
        self,
        ground_truth: GroundTruth,
        size: int = 100,
        noise: float = 0.1,
        seed: int = 0,
    ):
        if size <= 0:
            raise ValueError("crowd size must be positive")
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.ground_truth = ground_truth
        self.size = size
        self.noise = noise
        self.seed = seed
        self._members = [
            CrowdMember(
                member_id=i,
                bias=(noise / 2.0) * _unit_gaussian(seed, "bias", i),
            )
            for i in range(size)
        ]
        # Concurrent engine evaluations may ask from several threads;
        # `+= 1` on a plain int drops increments under contention, so
        # the counter is guarded.  Answers themselves are pure hashes
        # and need none.
        self._count_lock = threading.Lock()
        self.questions_asked = 0

    # -- engine-facing API -------------------------------------------------------

    def members(self) -> list[CrowdMember]:
        return list(self._members)

    def member(self, member_id: int) -> CrowdMember:
        return self._members[member_id]

    def ask(self, member: CrowdMember, fact_set: FactSet) -> float:
        """Ask one member about one fact-set; returns a value in [0, 1].

        The answer is the member's latent personal value — how often
        they engage in the habit, or how strongly they agree.
        """
        with self._count_lock:
            self.questions_asked += 1
        truth = self.ground_truth.support(fact_set)
        return member.personal_value(
            fact_set, truth, self.noise, self.seed
        )

    def true_support(self, fact_set: FactSet) -> float:
        """Ground-truth support (for evaluation only, not the engine)."""
        return self.ground_truth.support(fact_set)

    def population_support(self, fact_set: FactSet) -> float:
        """The full-population mean answer (the estimable quantity)."""
        np = _np or _numpy()
        truth = self.ground_truth.support(fact_set)
        values = [
            m.personal_value(fact_set, truth, self.noise, self.seed)
            for m in self._members
        ]
        return float(np.mean(values))

    def reset_counters(self) -> None:
        with self._count_lock:
            self.questions_asked = 0
