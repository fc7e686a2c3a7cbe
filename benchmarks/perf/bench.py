"""The NL2CM performance benchmark: four workloads, one command.

Run from the repository root::

    python benchmarks/perf/bench.py --seed 0                  # all workloads
    python benchmarks/perf/bench.py --workload http-zipf --seed 3 --trace
    python benchmarks/perf/bench.py --seed 0 --repeat 10 --json runs.json
    python benchmarks/perf/bench.py --quick --trace           # smoke run

Each run of a workload is a fresh process (``workloads.py``).  The
report names every metric with its unit, beside the op counts.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace`` its per-layer metrics.

Exit status: 0 when every output check passed, 1 when one failed (the
result line says ``"correct": false``), 2 when a run could not finish
(no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from harness import ROOT, load_spec, relative_spread

WORKLOADS_PY = Path(__file__).with_name("workloads.py")
DEFAULT_OUT_DIR = Path(__file__).with_name(".out")

#: Cold starts per untraced run; ``setup_s`` is their median.  One
#: start takes a quarter to one second, and a slow stretch of the host
#: lasts seconds, so the starts are spread over the run (see
#: :func:`run_workload`) instead of taken back to back.
SETUP_STARTS = 7


class RunFailed(RuntimeError):
    """A workload process crashed, hung or printed no result."""


def run_child(argv: list[str], timeout: float) -> dict:
    """Run ``workloads.py`` with ``argv``; its last stdout line as JSON.

    The child gets its own process group, so a hung run is killed with
    every server and worker it started.
    """
    process = subprocess.Popen(
        [sys.executable, str(WORKLOADS_PY), *argv],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RunFailed(f"workloads.py {' '.join(argv)} timed out")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(err)
        raise RunFailed(
            f"workloads.py {' '.join(argv)} exited {process.returncode} "
            "without a result"
        ) from None
    if err:
        sys.stderr.write(err)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, out_dir: Path) -> dict:
    """One run of one workload; ``setup_s`` is the median cold start.

    The measured run starts cold once; an untraced full run adds
    ``SETUP_STARTS - 1`` set-up-only processes, half before the run and
    half after it.
    """
    argv = [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--out-dir", str(out_dir),
    ] + ["--trace"] * trace + ["--quick"] * quick
    extra = 0 if trace or quick else SETUP_STARTS - 1
    starts = [run_child(argv + ["--setup-only"], 60) for _ in range(extra // 2)]
    result = run_child(argv, 3 * seconds + 150)
    starts += [run_child(argv + ["--setup-only"], 60)
               for _ in range(extra - extra // 2)]
    for start in starts:
        result["correct"] = result["correct"] and start["correct"]
        result["failed"] += start["failed"]
        result["failures"] += start["failures"]
    result["setup_samples"] = [result["setup_s"]] + [
        start["setup_s"] for start in starts
    ]
    if not trace and result["metrics"]:
        result["metrics"]["setup_s"] = statistics.median(
            result["setup_samples"]
        )
    return result


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def report(name: str, result: dict, units: dict[str, str]) -> None:
    """Print one run: op counts, then every metric with its unit."""
    attempted, failed = result["attempted"], result["failed"]
    timed = result["timed_ops"][-1]
    print(f"== {name} (seed {result['seed']})")
    print(
        f"   ops: {timed} timed; {attempted} attempted, "
        f"{attempted - failed} succeeded, {failed} failed"
    )
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    metrics = result["metrics"]
    for metric, unit in units.items():
        if metric not in metrics:
            continue
        note = ""
        if metric.startswith(("latency_", "throughput_")):
            note = f"  ({timed} ops)"
        elif metric == "setup_s":
            note = f"  (median of {len(result['setup_samples'])} cold starts)"
        print(f"   {metric:34s} {metrics[metric]:14.6g} {unit}{note}")
    if "setup_s" in units:
        print(f"   {'error_rate':34s} {failed / attempted:14.6g} ratio")
    for metric, value in result.get("extra", {}).items():
        print(f"   {metric:34s} {value:14.6g} count")


def result_line(results: dict[str, dict], units: dict[str, str]) -> dict:
    """The closing JSON object; metric names get a workload prefix when
    more than one workload ran."""
    metrics = {}
    for name, result in results.items():
        for metric, unit in units.items():
            key = metric if len(results) == 1 else f"{name}/{metric}"
            metrics[key] = {
                "value": result["metrics"].get(metric, 0.0), "unit": unit,
            }
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def summarize(runs: list[dict], units: dict[str, str]) -> dict:
    """Median, quartiles and relative spread of each metric over runs."""
    out = {}
    for metric in units:
        values = [run["metrics"][metric] for run in runs
                  if metric in run["metrics"]]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[metric] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": relative_spread(values),
        }
    return out


def print_summary(name: str, summary: dict, units: dict[str, str],
                  bounds: dict) -> None:
    print(f"== {name}: median and spread (IQR / median) over runs")
    for metric, row in summary.items():
        bound = bounds.get(metric)
        verdict = "" if bound is None else (
            "  steady" if row["spread"] < bound / 3 else "  NOISY"
        )
        bound_text = "" if bound is None else f"  bound {bound:g}"
        print(
            f"   {metric:34s} {row['median']:14.6g} {units[metric]:6s} "
            f"spread {row['spread']:.4f}{bound_text}{verdict}"
        )


def host() -> dict:
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "system": platform.platform(),
    }


def append_set(path: Path, entry: dict) -> None:
    """Add one set of runs to a trajectory file (created if missing)."""
    data = json.loads(path.read_text("utf-8")) if path.exists() else {
        "sets": []
    }
    data["sets"].append(entry)
    path.write_text(json.dumps(data, indent=1) + "\n", "utf-8")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="NL2CM performance benchmark (see README.md)."
    )
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run; must equal "
                             "run_seconds of BENCHMARK.json, so that runs "
                             "of every commit have the same length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: short, few warm-ups, one start")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each workload N times (seeds S..S+N-1, "
                             "fresh processes) and print median and spread")
    parser.add_argument("--json", type=Path, metavar="FILE",
                        help="append this set of runs to FILE")
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT_DIR,
                        help="where traced runs write their spans")
    args = parser.parse_args(argv)
    if args.seconds not in (None, spec["run_seconds"]):
        parser.error(f"--seconds must be {spec['run_seconds']} "
                     "(run_seconds of BENCHMARK.json)")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = 0.5 if args.quick else spec["run_seconds"]
    trace = bool(args.trace)
    units = metric_units(spec, trace)
    bounds = {e["name"]: e.get("bound") for e in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else names

    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    try:
        # Workloads take turns, so a slow stretch of the host is shared
        # out instead of landing on one workload's runs.
        for i in range(args.repeat):
            for name in workloads:
                result = run_workload(
                    name, args.seed + i, seconds, trace, args.quick,
                    args.out_dir,
                )
                report(name, result, units)
                runs[name].append(result)
    except RunFailed as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 2

    summaries = {}
    if args.repeat > 1:
        for name, results in runs.items():
            summaries[name] = summarize(results, units)
            print_summary(name, summaries[name], units, bounds)
    if args.json:
        append_set(args.json, {
            "seed": args.seed, "repeat": args.repeat, "seconds": seconds,
            "trace": int(trace), "quick": args.quick, "host": host(),
            "runs": runs, "summary": summaries,
        })

    if args.repeat > 1:
        # One line for the whole set: each metric's median over runs.
        results = {
            name: {
                "correct": all(r["correct"] for r in rs),
                "attempted": sum(r["attempted"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
                "metrics": {m: row["median"]
                            for m, row in summaries[name].items()},
            }
            for name, rs in runs.items()
        }
    else:
        results = {name: rs[0] for name, rs in runs.items()}
    line = result_line(results, units)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
