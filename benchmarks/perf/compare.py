"""Verdicts for a change, per end-to-end metric and workload.

Usage, from the repository root::

    python benchmarks/perf/compare.py PARENT.json CHANGE.json

Each file is one that ``bench.py --json FILE`` appended run sets to.
By default every untraced, full-length run in a file is used;
``FILE:K`` picks set ``K`` alone (``runs.json:0``).  Both sides must
have the same run length and the same seeds: runs pair up by seed, so
measure both commits on the same seeds, alternating which commit runs
first::

    for s in 0 1 2 3 4 5 6 7 8 9; do
        (cd parent && python benchmarks/perf/bench.py --seed $s --json ../A.json)
        (cd change && python benchmarks/perf/bench.py --seed $s --json ../B.json)
    done   # and swap the two lines on odd seeds

The rule, for each (metric, workload):

* ``too few pairs``: fewer than 10 pairs were run;
* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither side), the medians differ by more than the parent's
  inter-quartile range, and no more ops fail than at the parent;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: a side's spread (IQR / median) exceeds the bound,
  unless every change run beats every parent run;
* ``unchanged`` otherwise.

Exits 1 when any verdict is a regression, and 2 when the two sides
differ in run length or seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from harness import load_spec, relative_spread

MIN_PAIRS = 10


class Mismatch(ValueError):
    """The two sides were not measured alike, so they do not pair."""


def load_runs(argument: str) -> tuple[float, dict[str, list[dict]]]:
    """Run length and runs per workload from ``FILE`` or ``FILE:K``.

    Runs are in seed order.  Sets of different run lengths do not mix.
    """
    path, _, index = argument.partition(":")
    sets = json.loads(Path(path).read_text("utf-8"))["sets"]
    if index:
        sets = [sets[int(index)]]
    else:
        sets = [s for s in sets if not s["trace"] and not s["quick"]]
    lengths = {entry["seconds"] for entry in sets}
    if len(lengths) != 1:
        raise Mismatch(f"{argument}: sets of run lengths {sorted(lengths)}")
    runs: dict[str, list[dict]] = {}
    for entry in sets:
        for workload, results in entry["runs"].items():
            runs.setdefault(workload, []).extend(results)
    for results in runs.values():
        results.sort(key=lambda run: run["seed"])
    return lengths.pop(), runs


def pair(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """The runs of the two sides matched by seed."""
    seeds = [run["seed"] for run in parent]
    if seeds != [run["seed"] for run in change]:
        raise Mismatch(
            f"seeds differ: parent {seeds}, "
            f"change {[run['seed'] for run in change]}"
        )
    return list(zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, failed: tuple[int, int] = (0, 0)) -> str:
    """The guide's verdict for one metric on one workload.

    ``parent[i]`` and ``change[i]`` are a pair; ``failed`` is the
    (parent, change) count of failed ops over all runs.
    """
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "too few pairs"
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gained = sign * (change_median - parent_median)
    if (wins >= 0.9 * len(pairs) and gained > q3 - q1
            and failed[1] <= failed[0]):
        return "gain"
    if -gained > bound * abs(parent_median):
        return "regression"
    change_dominates = (
        min(change) > max(parent) if better == "higher"
        else max(change) < min(parent)
    )
    noisy = max(relative_spread(parent), relative_spread(change)) > bound
    if noisy and not change_dominates:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two run sets.")
    parser.add_argument("parent", help="FILE or FILE:SET of the parent")
    parser.add_argument("change", help="FILE or FILE:SET of the change")
    args = parser.parse_args(argv)
    metrics = load_spec()["end_to_end"]
    try:
        (parent_seconds, parent), (change_seconds, change) = (
            load_runs(args.parent), load_runs(args.change)
        )
        if parent_seconds != change_seconds:
            raise Mismatch(
                f"run lengths differ: parent {parent_seconds} s, "
                f"change {change_seconds} s"
            )
        pairs = {
            workload: pair(parent[workload], change[workload])
            for workload in parent if workload in change
        }
    except Mismatch as err:
        print(f"cannot compare: {err}", file=sys.stderr)
        return 2

    regressions = 0
    print("workload        " + " ".join(f"{m['name']:>16s}" for m in metrics))
    details = []
    for workload, runs in pairs.items():
        failed = tuple(
            sum(both[k]["failed"] for both in runs) for k in (0, 1)
        )
        cells = []
        for metric in metrics:
            name = metric["name"]
            a = [p["metrics"][name] for p, _ in runs]
            b = [c["metrics"][name] for _, c in runs]
            outcome = verdict(a, b, metric["better"], metric["bound"], failed)
            regressions += outcome == "regression"
            cells.append(f"{outcome:>16s}")
            details.append(
                f"  {workload:14s} {name:16s} parent {statistics.median(a):.6g} "
                f"(spread {relative_spread(a):.3f}, n={len(a)})  change "
                f"{statistics.median(b):.6g} (spread "
                f"{relative_spread(b):.3f}, n={len(b)})  bound "
                f"{metric['bound']:g}: {outcome}"
            )
        print(f"{workload:16s}" + " ".join(cells))
    print("\n".join(details))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
