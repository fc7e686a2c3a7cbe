"""The four benchmark workloads; each run is one process of its own.

``bench.py`` starts this script once per run (and once per extra
set-up sample); it can also be run by hand from the repository root::

    python benchmarks/perf/workloads.py \\
        --workload pipeline-cold --seed 0 --seconds 20 [--trace]

The last line of standard output is one JSON object: ``setup_s`` (this
process's cold start), ``attempted``/``failed`` op counts, the first
failure messages, ``timed_ops``, and ``metrics`` -- the end-to-end
metrics, or with ``--trace`` the per-layer ones.  ``--setup-only``
stops after the cold start.

Every workload is closed-loop: each caller sends its next operation
only after the previous one returned.  Inputs (pass orders, Zipf
traces, crowd seeds) derive from ``--seed`` alone; warm-up operations
are checked but not timed.  ``repro`` is imported only inside set-up,
so set-up time counts from before ``import repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import queue
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

from harness import (
    MIN_BEYOND,
    ROOT,
    InsufficientSamples,
    percentile,
    rank_order,
    shuffled,
    zipf_trace,
)
from tracer import LAYERS, Tracer, aggregate, install, load, uninstall

clock = time.perf_counter

#: The paper's Figure 1 query, verbatim: what the running example must
#: translate to, byte for byte.
FIGURE1_QUESTION_ID = "travel-01"
FIGURE1_QUERY = """\
SELECT VARIABLES
WHERE
{$x instanceOf Place.
$x near Forest_Hotel,_Buffalo,_NY}
SATISFYING
{$x hasLabel "interesting"}
ORDER BY DESC(SUPPORT)
LIMIT 5
AND
{[] visit $x.
[] in Fall}
WITH SUPPORT THRESHOLD = 0.1"""

#: Ground-truth top 3 of the Figure 1 query (the E5 experiment).
FIGURE1_TOP3 = frozenset(
    {"Delaware_Park", "Buffalo_Zoo", "Albright_Knox_Art_Gallery"}
)

#: The outcome of a question the verifier rejects (a correct outcome
#: for a question the corpus marks unsupported).
REJECTED = "!VerificationError"

#: The authored scenario packs replayed by ``pipeline-cold``.
PACKS = ("patients", "movies", "commerce")

#: Timed ops below which a p99 has fewer than ten samples beyond it.
MIN_TIMED_OPS = 1000

#: ``crowd.tasks_per_query`` is taken over this many timed passes, so
#: it is exact for a seed whatever the run length.
TASK_PASSES = 25

#: Closed-loop callers of the threaded workloads: one per vCPU of the
#: 2-vCPU reference host.
CALLERS = 2


def derive(seed: int, *parts) -> int:
    """A 64-bit seed for one input stream, derived from ``seed``."""
    digest = hashlib.sha256(repr((seed,) + parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of another process, from ``/proc``."""
    status = Path(f"/proc/{pid}/status").read_text("utf-8")
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no VmHWM for pid {pid}")
    return int(match.group(1)) / 1024.0


class Phase:
    """One measured phase: timed latencies, check outcomes, counters."""

    def __init__(self):
        self.starts = array("d")
        self.latencies = array("d")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.since = 0.0
        self.until = 0.0
        #: First output seen per input key; later ones must equal it.
        self.outputs: dict = {}
        #: Crowd tasks per (pass, question) (``crowd-execute`` only).
        self.tasks: dict = {}
        #: Per-layer values the workload measures itself.
        self.counters: dict[str, float] = {}
        #: :func:`tracer.aggregate` of the timed window (traced runs).
        self.spans: dict | None = None

    @property
    def wall(self) -> float:
        return self.until - self.since

    def timed(self, start: float, end: float) -> None:
        """Record one timed op."""
        self.starts.append(start)
        self.latencies.append(end - start)

    def check(self, key, output, error: str | None = None) -> None:
        """Count one op; ``error`` (or a changed output) is a failure."""
        self.attempted += 1
        first = self.outputs.setdefault(key, output)
        if error is None and first != output:
            error = "output differs from the first pass"
        if error is not None:
            self.fail(f"{key}: {error}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


def run_passes(phase, run_pass, warmup, seconds, min_ops, min_passes,
               before_timed):
    """Warm-up passes, then timed passes until time and floors are met.

    ``run_pass(p, timed)`` runs pass ``p``; ``before_timed()`` runs
    between warm-up and the timed window (counter snapshots, span
    reset).  A hard cap keeps a too-slow run inside its time limit.
    """
    for p in range(warmup):
        run_pass(p, False)
    before_timed()
    phase.since = clock()
    deadline = phase.since + seconds
    cap = phase.since + 3 * seconds + 5
    p = warmup
    while True:
        run_pass(p, True)
        p += 1
        now = clock()
        if now >= cap or (
            now >= deadline
            and len(phase.latencies) >= min_ops
            and p - warmup >= min_passes
        ):
            break
    phase.until = clock()


def run_callers(phase, ops, traces, warmup, seconds, min_ops, check,
                before_timed):
    """``len(ops)`` closed-loop caller threads over their own traces.

    Caller ``t`` runs ``ops[t](item)`` for the items of ``traces[t]``
    in order (cycling); ``check(phase, item, outcome)`` runs after each
    op, outside its timing.  Warm-up ops come first; then every caller
    waits, ``before_timed()`` runs, and the timed window opens for all
    callers at once.
    """
    n = len(ops)
    warm = threading.Barrier(n + 1)
    go = threading.Barrier(n + 1)
    shared = {"deadline": 0.0, "cap": 0.0}
    parts = [Phase() for _ in range(n)]
    errors: list[BaseException] = []

    def caller(t: int) -> None:
        op, trace, part = ops[t], traces[t], parts[t]
        length = len(trace)
        pos = 0
        try:
            for _ in range(warmup // n):
                item = trace[pos % length]
                pos += 1
                check(part, item, op(item))
            warm.wait()
            go.wait()
            deadline, cap = shared["deadline"], shared["cap"]
            while True:
                item = trace[pos % length]
                pos += 1
                start = clock()
                outcome = op(item)
                part.timed(start, clock())
                check(part, item, outcome)
                now = clock()
                if now >= cap or (
                    now >= deadline and len(part.latencies) >= min_ops / n
                ):
                    break
        except BaseException as exc:  # noqa: BLE001 - re-raised by main
            errors.append(exc)
            warm.abort()
            go.abort()

    threads = [
        threading.Thread(target=caller, args=(t,), name=f"caller-{t}")
        for t in range(n)
    ]
    for thread in threads:
        thread.start()
    try:
        warm.wait()
        before_timed()
        phase.since = clock()
        shared["deadline"] = phase.since + seconds
        shared["cap"] = phase.since + 3 * seconds + 5
        go.wait()
    except threading.BrokenBarrierError:
        pass  # a caller failed; its error is raised below
    except BaseException:
        go.abort()
        raise
    finally:
        for thread in threads:
            thread.join()
    phase.until = clock()
    if errors:
        raise errors[0]
    for part in parts:
        phase.starts.extend(part.starts)
        phase.latencies.extend(part.latencies)
        phase.attempted += part.attempted
        phase.failed += part.failed
        phase.failures.extend(part.failures[: 10 - len(phase.failures)])


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload: set-up, measured phases and its checks."""

    name = ""
    #: Warm-up size (passes or ops) for full and ``--quick`` runs.
    warmup = (0, 0)

    def __init__(self, args):
        self.seed = args.seed
        self.quick = args.quick
        self.out_dir = Path(args.out_dir)
        self.warm = self.warmup[1] if args.quick else self.warmup[0]
        #: Failed checks that belong to no single op.
        self.problems: list[str] = []

    def measure_setup(self) -> float:
        """Set-up time in seconds: cold process to ready."""
        start = clock()
        self.setup()
        return clock() - start

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: reference outputs for the checks."""

    def run(self, seconds: float, traced: bool, min_ops: int) -> Phase:
        """One phase; in-process workloads trace by patching in place."""
        tracer = Tracer() if traced else None
        patches = install(tracer) if traced else []
        try:
            phase = self.phase(seconds, min_ops, tracer)
        finally:
            uninstall(patches)
        if tracer is not None:
            phase.spans = aggregate(tracer.names, tracer.logs())
            tracer.dump(self.out_dir / f"{self.name}.spans.json")
        return phase

    def phase(self, seconds, min_ops, tracer) -> Phase:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """This process's peak RSS (``ru_maxrss`` is KiB on Linux)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def compare(self, plain: Phase, traced: Phase) -> list[str]:
        """Differences between the untraced and traced phases."""
        return [
            f"{key}: traced output differs"
            for key, output in traced.outputs.items()
            if key in plain.outputs and plain.outputs[key] != output
        ]

    def close(self) -> None:
        """Stop whatever set-up started."""


class PipelineCold(Workload):
    """One caller; each pack's own translator; nothing cached."""

    name = "pipeline-cold"
    warmup = (10, 1)

    def setup(self) -> None:
        from repro import NL2CM, ReproError, VerificationError
        from repro.data.corpus import CORPUS
        from repro.data.scenario import builtin_packs_dir, load_pack

        self.errors = (VerificationError, ReproError)
        default = NL2CM()
        self.items = [("default", default, q) for q in CORPUS]
        for name in PACKS:
            pack = load_pack(builtin_packs_dir() / name)
            translator = NL2CM(
                ontology=pack.ontology,
                patterns=pack.patterns,
                vocabularies=pack.vocabularies,
            )
            self.items += [(name, translator, q) for q in pack.corpus]

    def phase(self, seconds, min_ops, tracer) -> Phase:
        phase = Phase()
        items = self.items

        def run_pass(p: int, timed: bool) -> None:
            order = shuffled(range(len(items)), derive(self.seed, "pass", p))
            for i in order:
                pack, translator, question = items[i]
                start = clock()
                output = outcome(
                    translator.translate, question.text, self.errors
                )
                if timed:
                    phase.timed(start, clock())
                phase.check(
                    f"{pack}/{question.id}", output,
                    outcome_error(question, output),
                )

        run_passes(
            phase, run_pass, self.warm, seconds, min_ops, 0,
            tracer.reset if tracer else lambda: None,
        )
        return phase


class ServiceZipf(Workload):
    """Two callers on one cached TranslationService; Zipf questions."""

    name = "service-zipf"
    warmup = (2000, 100)
    trace_length = 1 << 16

    def setup(self) -> None:
        from repro import (
            NL2CM, ReproError, TranslationService, VerificationError,
        )
        from repro.data.corpus import CORPUS

        self.errors = (VerificationError, ReproError)
        self.service = TranslationService(NL2CM(), workers=2, cache=16)
        self.corpus = CORPUS
        self.questions = [q.text for q in CORPUS]

    def prepare(self) -> None:
        self.expected = reference_outputs(self.corpus, self.problems)
        self.traces = zipf_traces(self.corpus, self.seed, self.trace_length)

    def op(self, i: int) -> str:
        return outcome(self.service.translate, self.questions[i], self.errors)

    def check(self, phase: Phase, i: int, output: str) -> None:
        phase.check(
            i, output,
            None if output == self.expected[i] else (
                f"service output {output[:60]!r} differs from NL2CM"
            ),
        )

    def phase(self, seconds, min_ops, tracer) -> Phase:
        phase = Phase()
        before = {}

        def before_timed():
            before["stats"] = self.service.stats()
            if tracer:
                tracer.reset()

        run_callers(
            phase, [self.op] * CALLERS, self.traces, self.warm, seconds,
            min_ops, self.check, before_timed,
        )
        ops = len(phase.latencies)
        old, new = before["stats"], self.service.stats()
        hits = new.cache.hits - old.cache.hits
        lookups = hits + new.cache.misses - old.cache.misses
        errors = new.errors - old.errors
        phase.counters = {
            "service.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "service.cache.insertions_per_op":
                (new.cache.insertions - old.cache.insertions) / ops,
            "service.cache.evictions_per_op":
                (new.cache.evictions - old.cache.evictions) / ops,
            "service.pipeline_runs_per_op":
                (new.translated - old.translated + errors) / ops,
            "service.errors_per_op": errors / ops,
        }
        return phase


class CrowdExecute(Workload):
    """Translate, then evaluate over a simulated crowd: the full path."""

    name = "crowd-execute"
    warmup = (2, 1)

    def setup(self) -> None:
        from repro import (
            NL2CM, OassisEngine, ReproError, SimulatedCrowd,
        )
        from repro.crowd.model import GroundTruth
        from repro.crowd.scenarios import (
            buffalo_travel_truth, dietician_truth, vegas_rides_truth,
        )
        from repro.data.corpus import CORPUS

        self.errors = ReproError
        self.engine_class = OassisEngine
        self.crowd_class = SimulatedCrowd
        self.nl2cm = NL2CM()
        self.truth = GroundTruth(default=0.02)
        for part in (
            buffalo_travel_truth(), vegas_rides_truth(), dietician_truth()
        ):
            self.truth.supports.update(part.supports)
        self.questions = [q for q in CORPUS if q.supported]

    def phase(self, seconds, min_ops, tracer) -> Phase:
        phase = Phase()
        nl2cm, questions = self.nl2cm, self.questions
        answer_cache = [0, 0]
        before = {}

        def run_pass(p: int, timed: bool) -> None:
            crowd = self.crowd_class(
                self.truth, size=100, noise=0.1,
                seed=derive(self.seed, "crowd", p),
            )
            engine = self.engine_class(
                nl2cm.ontology, crowd, planner=nl2cm.planner
            )
            order = shuffled(
                range(len(questions)), derive(self.seed, "order", p)
            )
            for i in order:
                question = questions[i]
                start = clock()
                try:
                    result = nl2cm.translate(question.text)
                    answer = engine.evaluate(result.query)
                except self.errors as err:
                    phase.check(
                        question.id, None, f"{type(err).__name__}: {err}"
                    )
                    continue
                if timed:
                    phase.timed(start, clock())
                phase.tasks[(p, question.id)] = answer.tasks_used
                error = None
                if question.id == FIGURE1_QUESTION_ID:
                    top = {b["x"].local_name for b in answer.bindings()[:3]}
                    if top != FIGURE1_TOP3:
                        error = f"top 3 {sorted(top)} is not the ground truth"
                phase.check(question.id, result.query_text, error)
            if timed:
                answer_cache[0] += engine.answer_cache_hits
                answer_cache[1] += engine.answer_cache_misses

        def before_timed():
            before["plans"] = nl2cm.planner.snapshot()
            if tracer:
                tracer.reset()

        min_passes = 1 if self.quick else TASK_PASSES
        run_passes(
            phase, run_pass, self.warm, seconds, min_ops, min_passes,
            before_timed,
        )
        plans_old, plans_new = before["plans"], nl2cm.planner.snapshot()
        plan_hits = plans_new.hits - plans_old.hits
        plan_lookups = plan_hits + plans_new.misses - plans_old.misses
        counted = [
            n for (p, _), n in phase.tasks.items()
            if self.warm <= p < self.warm + TASK_PASSES
        ]
        lookups = sum(answer_cache)
        phase.counters = {
            "rdf.plan_cache.hit_ratio":
                plan_hits / plan_lookups if plan_lookups else 0.0,
            "oassis.answer_cache.hit_ratio":
                answer_cache[0] / lookups if lookups else 0.0,
            "crowd.tasks_per_query": sum(counted) / len(counted),
        }
        return phase

    def compare(self, plain: Phase, traced: Phase) -> list[str]:
        problems = super().compare(plain, traced)
        for key, n in traced.tasks.items():
            if plain.tasks.get(key, n) != n:
                problems.append(f"{key}: traced run used {n} crowd tasks")
        return problems


class HttpZipf(Workload):
    """Two keep-alive HTTP clients against the real ``--serve`` CLI."""

    name = "http-zipf"
    warmup = (100, 10)
    trace_length = 1 << 14
    serve_args = ["--serve", "--port", "0", "--shards", "2"]

    def __init__(self, args):
        super().__init__(args)
        self.server: Server | None = None

    def setup(self) -> None:
        # Set-up is Popen until /healthz answers 200.
        self.server = Server([sys.executable, "-m", "repro", *self.serve_args])

    def prepare(self) -> None:
        from repro.data.corpus import CORPUS

        self.expected = reference_outputs(CORPUS, self.problems)
        self.bodies = [
            json.dumps({"question": q.text}).encode("utf-8") for q in CORPUS
        ]
        self.traces = zipf_traces(CORPUS, self.seed, self.trace_length)

    def expect_clean_exit(self, server: "Server") -> None:
        code = server.stop()
        if code != 0:
            self.problems.append(f"--serve exited {code} after SIGTERM")

    def run(self, seconds: float, traced: bool, min_ops: int) -> Phase:
        spans_path = self.out_dir / f"{self.name}.server-spans.json"
        if traced:
            # The plain server served the untraced phase; the traced
            # one installs the same wrappers in the server process.
            self.expect_clean_exit(self.server)
            spans_path.unlink(missing_ok=True)
            self.server = Server([
                sys.executable, str(Path(__file__).with_name("traced_serve.py")),
                str(spans_path), *self.serve_args,
            ])
        server = self.server
        phase = Phase()
        connections = [server.connection() for _ in range(CALLERS)]
        before = {}

        def op_for(conn):
            def op(i: int):
                try:
                    conn.request(
                        "POST", "/translate", self.bodies[i],
                        {"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    return response.status, response.read()
                except (OSError, http.client.HTTPException) as err:
                    conn.close()
                    return None, repr(err).encode()
            return op

        def before_timed():
            before["stats"] = server.get_json("/stats")
            before["http"] = server.translate_seconds()

        try:
            run_callers(
                phase, [op_for(c) for c in connections], self.traces,
                self.warm, seconds, min_ops, self.check, before_timed,
            )
        finally:
            for conn in connections:
                conn.close()
        after = server.get_json("/stats")
        http_sum, http_count = server.translate_seconds()
        ops = len(phase.latencies)
        server_mean = (
            (http_sum - before["http"][0]) / (http_count - before["http"][1])
        )
        old, new = before["stats"], after
        hits = new["total"]["cache"]["hits"] - old["total"]["cache"]["hits"]
        lookups = hits + (
            new["total"]["cache"]["misses"] - old["total"]["cache"]["misses"]
        )
        phase.counters = {
            "serving.unattributed_us":
                (statistics.fmean(phase.latencies) - server_mean) * 1e6,
            "serving.worker.busy_us": (
                new["total"]["busy_seconds"] - old["total"]["busy_seconds"]
            ) / ops * 1e6,
            "serving.worker.cache_hit_ratio":
                hits / lookups if lookups else 0.0,
            "serving.shed_ratio": (new["shed"] - old["shed"]) / ops,
            "serving.worker_restarts": new["restarts"] - old["restarts"],
        }
        if not after["identity_holds"]:
            phase.fail("/stats counter identity does not hold")
        self.rss = server.peak_rss_mb()
        if traced:
            self.expect_clean_exit(server)
            self.server = None
            names, threads = load(spans_path)
            phase.spans = aggregate(names, threads, phase.since, phase.until)
            dispatched = phase.spans["layers"].get(
                "serving.dispatch", {}
            ).get("calls", 0)
            if dispatched != ops:
                phase.fail(
                    f"server traced {dispatched} requests in the timed "
                    f"window, the clients timed {ops}"
                )
        return phase

    def check(self, phase: Phase, i: int, outcome) -> None:
        status, body = outcome
        output, error = None, None
        try:
            reply = json.loads(body)
        except ValueError:
            error = f"HTTP {status}: unparsable body {body[:60]!r}"
        else:
            if status == 200 and reply.get("ok"):
                output = reply.get("query")
            elif status == 422:
                output = "!" + str((reply.get("error") or {}).get("type"))
            else:
                error = f"HTTP {status}: {str(reply)[:80]}"
        if error is None and output != self.expected[i]:
            error = f"HTTP output {str(output)[:60]!r} differs from NL2CM"
        phase.check(i, output, error)

    def peak_rss_mb(self) -> float:
        return self.rss

    def close(self) -> None:
        if self.server is not None:
            self.expect_clean_exit(self.server)
            self.server = None


def zipf_traces(corpus, seed: int, length: int) -> list:
    """One Zipf(1.1) trace of corpus indices per caller.

    Unsupported questions are never cached, so where they rank decides
    the hit ratio; :func:`harness.rank_order` keeps them on the same
    ranks for every seed, so seeds change the hot set, not the mix.
    """
    order = rank_order([q.supported for q in corpus], derive(seed, "ranks"))
    return [
        [order[r] for r in zipf_trace(len(order), length,
                                      derive(seed, "zipf", t))]
        for t in range(CALLERS)
    ]


def outcome(translate, text: str, errors) -> str:
    """``translate(text).query_text``, or what went wrong.

    ``errors`` is ``(VerificationError, ReproError)``: a rejection
    reads :data:`REJECTED`, any other library error ``!Type: message``.
    """
    rejected, failed = errors
    try:
        return translate(text).query_text
    except rejected:
        return REJECTED
    except failed as err:
        return f"!{type(err).__name__}: {err}"


def outcome_error(question, output: str) -> str | None:
    """Why ``output`` is the wrong outcome for a corpus question."""
    if not question.supported:
        return None if output == REJECTED else (
            f"unsupported question gave {output[:60]!r}"
        )
    if output.startswith("!"):
        return f"supported question failed: {output[:80]}"
    if question.id == FIGURE1_QUESTION_ID and output != FIGURE1_QUERY:
        return "Figure 1 query differs from the paper"
    return None


def reference_outputs(corpus, problems: list[str]) -> list[str]:
    """In-process ``NL2CM.translate`` outputs, the identity reference.

    A reference outcome of the wrong kind is added to ``problems``.
    """
    from repro import NL2CM, ReproError, VerificationError

    translator = NL2CM()
    errors = (VerificationError, ReproError)
    out = []
    for question in corpus:
        output = outcome(translator.translate, question.text, errors)
        error = outcome_error(question, output)
        if error is not None:
            problems.append(f"reference {question.id}: {error}")
        out.append(output)
    return out


class Server:
    """A ``--serve`` process: started, probed, measured and stopped."""

    def __init__(self, argv: list[str], timeout: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.stderr: list[str] = []
        announced: queue.Queue = queue.Queue()
        self.drain = threading.Thread(
            target=self._drain, args=(announced,), daemon=True
        )
        self.drain.start()
        try:
            port = announced.get(timeout=timeout)
            if port is None:
                raise RuntimeError(
                    "--serve exited before announcing its port:\n"
                    + "".join(self.stderr[-20:])
                )
            self.port = port
            deadline = clock() + timeout
            while True:
                try:
                    status, health = self._get("/healthz")
                except OSError:
                    status = None
                if status == 200:
                    break
                if clock() > deadline:
                    raise RuntimeError("/healthz never answered 200")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.pids = [self.process.pid] + [
            shard["pid"] for shard in json.loads(health)["shards"].values()
        ]

    def _drain(self, announced: queue.Queue) -> None:
        port = None
        for line in self.process.stderr:
            self.stderr.append(line)
            if port is None:
                match = re.search(r"http://[\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    announced.put(port)
        if port is None:
            announced.put(None)

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def _get(self, path: str) -> tuple[int, bytes]:
        conn = self.connection()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, body = self._get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def translate_seconds(self) -> tuple[float, float]:
        """``serving_http_request_seconds`` sum and count for /translate."""
        _, body = self._get("/metrics")
        values = dict(re.findall(
            r'^serving_http_request_seconds_(sum|count)'
            r'\{endpoint="/translate"\} (\S+)$',
            body.decode("utf-8"), re.MULTILINE,
        ))
        return float(values.get("sum", 0)), float(values.get("count", 0))

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its worker processes."""
        return sum(vm_hwm_mb(pid) for pid in self.pids)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.drain.join(timeout)
        return code


WORKLOADS = {
    cls.name: cls
    for cls in (PipelineCold, ServiceZipf, HttpZipf, CrowdExecute)
}

#: Per-layer metrics derived from span totals: metric -> (layer, what).
_SPAN_METRICS = {
    **{f"{name}.self_us": (name, "self") for name, _, _ in LAYERS},
    "nlp.tokenize.calls": ("nlp.tokenize", "calls"),
    "nlp.lemma.calls": ("nlp.lemma", "calls"),
    "rdf.bgp.solutions_per_op": ("rdf.bgp", "items"),
    "crowd.asks_per_op": ("crowd.ask", "calls"),
}


def end_to_end(phase: Phase, peak_rss: float, min_beyond: int) -> dict:
    """The end-to-end metrics over every timed op of the run."""
    ordered = sorted(phase.latencies)
    return {
        "latency_p50_ms": percentile(ordered, 0.50, min_beyond) * 1e3,
        "latency_p99_ms": percentile(ordered, 0.99, min_beyond) * 1e3,
        "throughput_qps": len(ordered) / phase.wall,
        "peak_rss_mb": peak_rss,
    }


def per_layer(plain: Phase, traced: Phase) -> dict:
    ops = len(traced.latencies)
    layers = traced.spans["layers"]
    out = {}
    for metric, (layer, what) in _SPAN_METRICS.items():
        total = layers.get(layer, {}).get(what, 0)
        out[metric] = total / ops * (1e6 if what == "self" else 1)
    out.update(traced.counters)
    op_seconds = sum(traced.latencies)
    out["trace.unattributed_ratio"] = (
        1.0 - traced.spans["roots"]["seconds"] / op_seconds
    )
    out["trace.overhead_ratio"] = (
        statistics.fmean(traced.latencies)
        / statistics.fmean(plain.latencies) - 1.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", default=str(ROOT / "benchmarks/perf/.out"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](args)
    result = {"workload": args.workload, "seed": args.seed}
    # A set-up-only run measures one cold start and stops again; it has
    # no phases, but a server that does not exit cleanly still fails it.
    phases, metrics, problems = [], {}, []
    try:
        result["setup_s"] = workload.measure_setup()
        if not args.setup_only:
            workload.prepare()
            min_beyond = 0 if args.quick else MIN_BEYOND
            min_ops = 0 if args.quick or args.trace else MIN_TIMED_OPS
            if args.trace:
                plain = workload.run(args.seconds / 2, False, min_ops)
                traced = workload.run(args.seconds / 2, True, min_ops)
                phases = [plain, traced]
                metrics = per_layer(plain, traced)
                problems = workload.compare(plain, traced)
            else:
                phases = [workload.run(args.seconds, False, min_ops)]
                try:
                    metrics = end_to_end(
                        phases[0], workload.peak_rss_mb(), min_beyond
                    )
                except InsufficientSamples as err:
                    problems = [str(err)]
    finally:
        workload.close()
    problems += workload.problems
    failures = [f for phase in phases for f in phase.failures] + problems
    result.update(
        attempted=sum(phase.attempted for phase in phases),
        failed=sum(phase.failed for phase in phases) + len(problems),
        correct=not failures,
        failures=failures[:20],
        timed_ops=[len(phase.latencies) for phase in phases],
        metrics=metrics,
    )
    tasks = phases[-1].counters.get("crowd.tasks_per_query") if phases else None
    if tasks is not None and not args.trace:
        # The paper's cost unit; exact for a seed, so a count to report
        # beside the end-to-end metrics rather than a bounded timing.
        result["extra"] = {"crowd_tasks_per_query": tasks}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
