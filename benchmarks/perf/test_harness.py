"""Self-tests of the benchmark harness.

Run from the repository root (outside the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from compare import Mismatch, load_runs, pair, verdict
from harness import (
    InsufficientSamples,
    load_spec,
    percentile,
    rank_order,
    relative_spread,
    zipf_trace,
)
from tracer import Tracer, aggregate
from workloads import WORKLOADS, derive

BENCH = Path(__file__).with_name("bench.py")


# -- percentiles -----------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 1001)]
    assert percentile(samples, 0.99) == 990.0
    assert percentile(samples, 0.50) == 500.0
    with pytest.raises(InsufficientSamples):
        percentile(samples[:999], 0.99)
    with pytest.raises(InsufficientSamples):
        percentile([], 0.5)


def test_percentile_floor_can_be_waived_for_smoke_runs():
    assert percentile([3.0, 4.0], 0.99, min_beyond=0) == 4.0


def test_relative_spread_is_iqr_over_median():
    assert relative_spread([1.0] * 10) == 0.0
    assert relative_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(
        (11.5 - 8.5) / 10.0
    )


# -- self time ---------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_times_tile_the_root_including_a_stream_across_resumes():
    clock = FakeClock()
    tracer = Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(2))

    def solutions():
        clock.advance(1)
        leaf()  # a call inside a resume is the stream's child
        yield "a"
        clock.advance(1)
        yield "b"
        clock.advance(1)  # the exhausting resume still counts

    stream = tracer.wrap("stream", solutions, stream=True)

    def op():
        clock.advance(1)
        leaf()
        for _ in stream():
            clock.advance(5)  # consumer work between resumes
        clock.advance(1)

    tracer.wrap("op", op)()
    totals = aggregate(tracer.names, tracer.logs())
    layers = totals["layers"]
    assert layers["leaf"] == {"self": 4.0, "calls": 2, "items": 0}
    assert layers["stream"] == {"self": 3.0, "calls": 1, "items": 2}
    assert layers["op"]["self"] == 1 + 5 + 5 + 1
    assert totals["roots"] == {"count": 1, "seconds": 19.0}
    assert sum(entry["self"] for entry in layers.values()) == 19.0


def test_stream_span_closes_when_consumer_stops_early():
    clock = FakeClock()
    tracer = Tracer(clock)
    closed = []

    def solutions():
        try:
            while True:
                clock.advance(1)
                yield 1
        finally:
            closed.append(True)

    stream = tracer.wrap("stream", lambda: solutions(), stream=True)
    iterator = stream()
    next(iterator)
    iterator.close()
    assert closed == [True]
    layers = aggregate(tracer.names, tracer.logs())["layers"]
    assert layers["stream"]["self"] == 1.0


def test_aggregate_window_keeps_spans_started_inside_it():
    clock = FakeClock()
    tracer = Tracer(clock)
    step = tracer.wrap("step", lambda: clock.advance(1))
    for _ in range(5):
        step()
    totals = aggregate(tracer.names, tracer.logs(), since=1.0, until=3.0)
    assert totals["layers"]["step"]["calls"] == 3


# -- inputs ------------------------------------------------------------------------


def test_zipf_trace_is_deterministic_per_seed_and_moves_with_it():
    first = zipf_trace(57, 2000, seed=7)
    assert first == zipf_trace(57, 2000, seed=7)
    assert first != zipf_trace(57, 2000, seed=8)
    assert all(0 <= i < 57 for i in first)
    assert first.count(0) > 5 * first.count(28)  # skewed, not uniform


def test_rank_order_pins_the_minority_to_the_same_ranks():
    kinds = [i % 7 != 3 for i in range(57)]
    orders = [rank_order(kinds, seed) for seed in (1, 2, 3)]
    for order in orders:
        assert sorted(order) == list(range(57))
    minority_ranks = [
        [rank for rank, item in enumerate(order) if not kinds[item]]
        for order in orders
    ]
    assert minority_ranks[0] == minority_ranks[1] == minority_ranks[2]
    assert orders[0] != orders[1]


def test_derived_seeds_are_stable_and_distinct():
    assert derive(3, "crowd", 1) == derive(3, "crowd", 1)
    assert derive(3, "crowd", 1) != derive(4, "crowd", 1)
    assert derive(3, "crowd", 1) != derive(3, "crowd", 2)


# -- the benchmark definition ------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_names_are_well_formed_and_unique():
    spec = load_spec()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )


# -- verdicts ----------------------------------------------------------------------


def test_verdicts_follow_the_pairing_rule(tmp_path):
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert verdict(parent, faster, "lower", 0.1) == "gain"
    assert verdict(parent, slower, "lower", 0.1) == "regression"
    assert verdict(parent, parent, "lower", 0.1) == "unchanged"
    assert verdict(parent, slower, "higher", 0.1) == "gain"
    noisy = [5.0, 15.0] * 5
    assert verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert verdict(parent[:9], faster[:9], "lower", 0.1) == "too few pairs"
    # A gain does not count when more ops fail than at the parent.
    assert verdict(parent, faster, "lower", 0.1, failed=(0, 1)) != "gain"
    assert verdict(parent, faster, "lower", 0.1, failed=(2, 2)) == "gain"

    # Runs pair by seed; other seeds, or another run length, do not pair.
    runs = [{"seed": s} for s in range(10)]
    assert pair(runs, runs) == list(zip(runs, runs))
    with pytest.raises(Mismatch):
        pair(runs, [{"seed": s + 1} for s in range(10)])
    path = tmp_path / "runs.json"
    path.write_text(json.dumps({"sets": [
        {"seconds": seconds, "trace": 0, "quick": False, "runs": {}}
        for seconds in (20, 10)
    ]}))
    assert load_runs(f"{path}:1") == (10, {})
    with pytest.raises(Mismatch):
        load_runs(str(path))


# -- smoke -------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_of_every_workload(trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--quick", "--seed", "1",
         "--trace", str(trace), "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for workload in WORKLOADS:
        for metric in wanted:
            assert f"{workload}/{metric['name']}" in line["metrics"]
    if trace:
        for workload in ("pipeline-cold", "service-zipf", "crowd-execute"):
            ratio = line["metrics"][f"{workload}/trace.unattributed_ratio"]
            assert 0.0 <= ratio["value"] <= 0.02
