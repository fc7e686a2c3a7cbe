"""Statistics and input helpers shared by the benchmark's processes.

Nothing here imports ``repro``: the orchestrator (``bench.py``) and the
comparison tool (``compare.py``) stay independent of the code under
test, and only the workload processes load it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
import statistics
from pathlib import Path

#: The repository root (this file lives in ``benchmarks/perf/``).
ROOT = Path(__file__).resolve().parents[2]

#: The benchmark definition: workloads, metrics, units and bounds.
SPEC_PATH = ROOT / "BENCHMARK.json"

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def load_spec() -> dict:
    """``BENCHMARK.json`` as a dict."""
    return json.loads(SPEC_PATH.read_text("utf-8"))


def percentile(
    sorted_samples, q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """The nearest-rank ``q``-quantile of ``sorted_samples``.

    Raises :class:`InsufficientSamples` unless at least ``min_beyond``
    samples rank strictly above the returned one: a p99 needs 1,000
    samples, so that it rests on ten slow cases and not one.
    """
    n = len(sorted_samples)
    if n == 0:
        raise InsufficientSamples("no samples")
    # The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
    rank = max(1, math.ceil(q * n - 1e-9))
    beyond = n - rank
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it, "
            f"needs {min_beyond}"
        )
    return sorted_samples[rank - 1]


def relative_spread(values) -> float:
    """Inter-quartile range as a share of the median (0 for constants)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def zipf_trace(n_items: int, length: int, seed: int, s: float = 1.1) -> list[int]:
    """``length`` popularity ranks (0 is hottest) drawn from Zipf(``s``)."""
    rng = random.Random(seed)
    cumulative = list(
        itertools.accumulate(1.0 / (k + 1) ** s for k in range(n_items))
    )
    total = cumulative[-1]
    return [
        bisect.bisect_left(cumulative, rng.random() * total)
        for _ in range(length)
    ]


def rank_order(kinds: list[bool], seed: int) -> list[int]:
    """Which item holds each popularity rank, for a Zipf trace.

    Items of the minority kind (``False``) sit on fixed ranks spread
    evenly over the order; the seed shuffles items only within their
    kind.  So every seed has the same mix of kinds at every popularity
    level, while the hot set itself changes with the seed.
    """
    n = len(kinds)
    minority = [i for i, kind in enumerate(kinds) if not kind]
    majority = shuffled([i for i, kind in enumerate(kinds) if kind], seed)
    minority = shuffled(minority, seed + 1)
    slots = {round((k + 0.5) * n / len(minority)) for k in range(len(minority))}
    return [
        (minority if rank in slots else majority).pop() for rank in range(n)
    ]


def shuffled(items: list, seed: int) -> list:
    """A seeded shuffle of ``items`` (a new list)."""
    out = list(items)
    random.Random(seed).shuffle(out)
    return out
