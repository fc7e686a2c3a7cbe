"""Command-line interface: translate questions from the terminal.

Usage::

    python -m repro "Where do you go hiking in the winter?"
    python -m repro --interactive           # prompt loop
    python -m repro --admin "question"      # show the module trace
    python -m repro --execute "question"    # also run it on the demo crowd
    python -m repro --batch questions.txt   # concurrent batch translation

The demo crowd merges the three packaged scenarios (Buffalo travel,
Vegas rides, the dietician's study) with a small default support for
everything else.

Batch mode reads one question per line (blank lines and ``#`` comments
skipped), translates them through the caching
:class:`~repro.service.TranslationService` with ``--workers`` threads,
and prints each query; ``--admin`` appends the service stats panel.

Static analysis (exit status 1 when any ERROR-level diagnostic fires)::

    python -m repro --lint query.oql        # one saved OASSIS-QL query
    python -m repro --lint questions.txt    # translate + lint each line
    python -m repro --lint-patterns         # the IX pattern bank
    python -m repro --lint-kb               # every embedded KB snapshot
    python -m repro --lint-pack packs/demo  # one scenario-pack directory
    python -m repro --lint q.oql --lint-report counts.json

``--lint`` sniffs the file: if the first non-comment line starts with
``SELECT`` it is a query file, otherwise a question batch.  All four
lint flags compose: their reports merge into one run with one exit
status (0 clean, 1 any ERROR diagnostic, 2 unreadable input) and one
``--lint-report`` JSON artifact with per-rule counts keyed by analyzer
family.

Accuracy scoring (see ``docs/scenarios.md``)::

    python -m repro --score                      # every builtin pack
    python -m repro --score --pack packs/demo    # one pack directory
    python -m repro --score --json accuracy.json # also write artifact

``--score`` runs the per-domain accuracy harness
(:mod:`repro.eval.accuracy`) over every builtin scenario pack (or the
one named by ``--pack``): POS accuracy with a known/unknown split and
confusion matrix, dependency UAS/LAS, and translation quality (IX
P/R/F1, well-formedness, entity recall, gold-query exact match and
structure), with ``development`` and ``held-out`` totals kept apart.

Query planning (see ``docs/performance.md``)::

    python -m repro --explain query.oql      # join order + cardinalities
    python -m repro --explain questions.txt  # translate, then explain

``--explain`` sniffs the file like ``--lint`` and prints one plan panel
per query: the chosen join order, estimated vs. actual per-step
cardinalities, and whether the request hit the plan cache.

Observability (see ``docs/observability.md``)::

    python -m repro --batch q.txt --metrics-out metrics.prom
    python -m repro --batch q.txt --slow-log 50   # dump traces > 50 ms

Every translation goes through one shared
:class:`~repro.service.TranslationService`, so ``--metrics-out``
(Prometheus text file at exit) and ``--slow-log`` (span trees of slow
translations, to stderr at exit) observe single-question, interactive
and batch modes alike.  A live ``/metrics`` endpoint is ``--serve``'s.

Sharded serving (see ``docs/serving.md``)::

    python -m repro --serve --port 8080 --shards 4
    python -m repro --serve --port 0 --shards 2 --max-pending 16

``--serve`` starts the multi-process serving tier: an HTTP/JSON
front-end (``POST /translate``, ``POST /batch``, ``POST /lint``,
``GET /stats``, ``GET /healthz``, ``GET /metrics``) over ``--shards``
worker processes routed by consistent hash of the normalized question.
SIGTERM/SIGINT drains in-flight requests, prints the final serving
panel to stderr, flushes ``--metrics-out`` and joins the workers.

Fault tolerance (see ``docs/resilience.md``)::

    python -m repro --batch q.txt --retries 3
    python -m repro --batch q.txt --stage-timeout-ms 500
    python -m repro --batch q.txt --inject-faults rate=0.3,seed=7 --admin

``--retries`` turns on the resilience layer: interaction failures are
retried with deterministic backoff behind a circuit breaker and then
answered from defaults (flagged ``degraded`` in the batch output and
counted in the stats panel).  ``--inject-faults`` wires the
deterministic chaos harness under the retry layer.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ReproError, VerificationError
from repro.obs import MetricsRegistry, SlowQueryLog
from repro.resilience import FaultPlan, ResilienceConfig

# The translation stack loads inside the modes that translate: a
# ``--serve`` front end only routes, and its workers build their own.
if TYPE_CHECKING:
    from repro.core.pipeline import NL2CM
    from repro.oassis.engine import OassisEngine
    from repro.service.service import TranslationService


def _non_negative(kind):
    """An argparse ``type`` parsing with ``kind`` and refusing values < 0."""
    def parse(text: str):
        value = kind(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NL2CM: translate NL questions into OASSIS-QL "
                    "crowd-mining queries.",
    )
    parser.add_argument("question", nargs="*",
                        help="the question to translate")
    parser.add_argument("--interactive", action="store_true",
                        help="answer clarification dialogs on stdin")
    parser.add_argument("--admin", action="store_true",
                        help="print the admin-mode module trace")
    parser.add_argument("--execute", action="store_true",
                        help="run the query on the packaged demo crowd")
    parser.add_argument("--crowd-size", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch", metavar="FILE",
                        help="translate every question in FILE "
                             "(one per line) concurrently")
    parser.add_argument("--workers", type=int, default=4,
                        help="thread count for --batch (default 4)")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="translation cache capacity for --batch "
                             "(0 disables caching)")
    parser.add_argument("--explain", metavar="FILE",
                        help="show the query plan of FILE (an "
                             "OASSIS-QL query, or a question batch to "
                             "translate first): join order, estimated "
                             "vs. actual cardinalities, plan-cache "
                             "outcome")
    parser.add_argument("--lint", metavar="FILE",
                        help="statically analyze FILE (an OASSIS-QL "
                             "query, or a question batch to translate "
                             "and lint); exit 1 on errors")
    parser.add_argument("--lint-patterns", action="store_true",
                        help="statically analyze the IX detection "
                             "pattern bank; exit 1 on errors")
    parser.add_argument("--lint-kb", action="store_true",
                        help="statically analyze every embedded "
                             "ontology snapshot plus the default "
                             "scenario pack; exit 1 on errors")
    parser.add_argument("--lint-pack", metavar="DIR",
                        help="statically analyze the scenario pack in "
                             "DIR (*.ttl + patterns.txt + optional "
                             "vocabularies/ and corpus.json); exit 1 "
                             "on errors")
    parser.add_argument("--lint-report", metavar="FILE",
                        help="also write the diagnostic counts of a "
                             "lint run to FILE as JSON")
    parser.add_argument("--score", action="store_true",
                        help="run the per-domain accuracy harness "
                             "(POS/parse/translation vs. gold) over "
                             "every builtin scenario pack")
    parser.add_argument("--pack", metavar="DIR",
                        help="with --score: score only the scenario "
                             "pack in DIR instead of the builtin "
                             "packs")
    parser.add_argument("--json", metavar="FILE", dest="json_out",
                        help="with --score: also write the accuracy "
                             "report to FILE as JSON")
    parser.add_argument("--serve", action="store_true",
                        help="serve translations over HTTP from a "
                             "multi-process worker tier (see "
                             "docs/serving.md)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for --serve "
                             "(default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port for --serve (0 picks a free "
                             "port, printed to stderr)")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker-process count for --serve "
                             "(default 2)")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="per-shard admission limit for --serve; "
                             "beyond it requests are shed with "
                             "HTTP 429 (default 64)")
    parser.add_argument("--warmup-keys", type=int, default=64,
                        help="hot cache entries replayed into a "
                             "restarted worker before it rejoins the "
                             "ring (default 64; 0 disables warm "
                             "restarts)")
    parser.add_argument("--start-method",
                        choices=("spawn", "thread"),
                        default="spawn",
                        help="worker start method for --serve "
                             "('thread' runs workers in-process — "
                             "debugging only, no CPU scaling)")
    parser.add_argument("--request-timeout", type=float, default=30.0,
                        metavar="S",
                        help="per-request front-end deadline for "
                             "--serve, in seconds (default 30)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write Prometheus text-format metrics to "
                             "FILE on exit")
    parser.add_argument("--slow-log", metavar="MS", type=float,
                        help="log translations slower than MS "
                             "milliseconds; span trees are dumped to "
                             "stderr on exit")
    parser.add_argument("--retries", type=_non_negative(int), default=None,
                        metavar="N",
                        help="enable the resilience layer: retry "
                             "failing interactions N times, then "
                             "degrade to defaults")
    parser.add_argument("--stage-timeout-ms", type=_non_negative(float),
                        default=None, metavar="MS",
                        help="per-stage pipeline deadline; a stage "
                             "that overruns fails the translation "
                             "with DeadlineExceeded")
    parser.add_argument("--inject-faults", metavar="SPEC",
                        type=FaultPlan.parse, default=None,
                        help="deterministic fault injection for chaos "
                             "testing, e.g. 'rate=0.3,seed=7' or "
                             "'indices=0:2,error=runtime' (implies "
                             "the resilience layer)")
    return parser


def demo_engine(nl2cm: NL2CM, size: int, seed: int,
                registry: MetricsRegistry | None = None) -> OassisEngine:
    """The demo crowd over ``nl2cm``'s ontology and query planner."""
    from repro.crowd.model import GroundTruth
    from repro.crowd.scenarios import (
        buffalo_travel_truth,
        dietician_truth,
        vegas_rides_truth,
    )
    from repro.crowd.simulator import SimulatedCrowd
    from repro.oassis.engine import EngineConfig, OassisEngine

    truth = GroundTruth(default=0.05)
    for scenario in (buffalo_travel_truth(), vegas_rides_truth(),
                     dietician_truth()):
        truth.supports.update(scenario.supports)
    crowd = SimulatedCrowd(truth, size=size, noise=0.08, seed=seed)
    return OassisEngine(nl2cm.ontology, crowd, EngineConfig(),
                        registry=registry, planner=nl2cm.planner)


def run_question(service: TranslationService, args, question: str,
                 engine: OassisEngine | None) -> int:
    try:
        result = service.translate(question)
    except VerificationError as err:
        print(f"not supported: {err}", file=sys.stderr)
        for tip in err.tips:
            print(f"  tip: {tip}", file=sys.stderr)
        return 2
    except ReproError as err:
        print(f"translation failed: {err}", file=sys.stderr)
        return 1

    if args.admin:
        print(result.trace.render())
    else:
        print(result.query_text)

    if engine is not None:
        print()
        execution = engine.evaluate(result.query)
        print(f"# crowd tasks: {execution.tasks_used}")
        ontology = service.nl2cm.ontology
        for outcome in execution.accepted:
            rendered = ", ".join(
                f"${name} = {ontology.label_of(term)}"
                if hasattr(term, "local_name") else f"${name} = {term}"
                for name, term in sorted(outcome.binding.items())
            ) or "(boolean: pattern is significant)"
            supports = ", ".join(
                f"{s:.2f}" for s in outcome.supports.values()
            )
            print(f"  {rendered}  [support {supports}]")
        if not execution.accepted:
            print("  (no significant bindings)")
    return 0


def run_batch(service: TranslationService, args) -> int:
    from repro.ui.admin import render_service_stats

    path = Path(args.batch)
    try:
        lines = path.read_text("utf-8").splitlines()
    except OSError as err:
        print(f"cannot read batch file: {err}", file=sys.stderr)
        return 2
    questions = [
        line.strip() for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not questions:
        print("batch file contains no questions", file=sys.stderr)
        return 2

    items = service.translate_batch(questions)
    failed = 0
    for item in items:
        print(f"# {item.text}")
        if item.ok:
            if item.degraded:
                print("# degraded: some interactions were answered "
                      "with defaults after provider failures")
            print(item.query_text)
        else:
            failed += 1
            print(f"error: {item.error}")
        print()
    if args.admin:
        print(render_service_stats(service.stats()))
    return 1 if failed else 0


def _looks_like_query(text: str) -> bool:
    """True when the first non-comment line is an OASSIS-QL SELECT."""
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        return stripped.upper().startswith("SELECT")
    return False


def run_lint(args) -> int:
    import json

    from repro.analysis import (
        LintOutcome,
        lint_knowledge_base,
        lint_pattern_bank,
        lint_query_source,
        lint_questions,
        lint_scenario_pack,
    )
    from repro.core.pipeline import NL2CM
    from repro.data.ontologies import load_merged_ontology

    outcome = LintOutcome()
    if args.lint_patterns:
        outcome.merge(lint_pattern_bank())
    if args.lint_kb:
        outcome.merge(lint_knowledge_base())
    if args.lint_pack:
        from repro.data.scenario import load_pack
        from repro.errors import ScenarioPackError

        try:
            pack = load_pack(args.lint_pack)
        except (OSError, ScenarioPackError) as err:
            print(f"cannot load scenario pack: {err}", file=sys.stderr)
            return 2
        outcome.merge(lint_scenario_pack(pack))
    if args.lint:
        path = Path(args.lint)
        try:
            text = path.read_text("utf-8")
        except OSError as err:
            print(f"cannot read lint file: {err}", file=sys.stderr)
            return 2
        if _looks_like_query(text):
            sub = lint_query_source(
                text,
                ontology=load_merged_ontology(),
                subject=path.name,
            )
        else:
            questions = [
                line.strip() for line in text.splitlines()
                if line.strip() and not line.lstrip().startswith("#")
            ]
            if not questions:
                print("lint file contains no questions", file=sys.stderr)
                return 2
            sub = lint_questions(
                questions, NL2CM(ontology=load_merged_ontology())
            )
        outcome.merge(sub)
    print(outcome.render())
    if args.lint_report:
        try:
            Path(args.lint_report).write_text(
                json.dumps(outcome.counts(), indent=2) + "\n", "utf-8"
            )
        except OSError as err:
            print(f"cannot write lint report: {err}", file=sys.stderr)
            return 2
    return outcome.exit_code


def run_score(args) -> int:
    from repro.data.scenario import load_pack
    from repro.errors import ScenarioPackError
    from repro.eval.accuracy import evaluate_accuracy

    packs = None
    if args.pack:
        try:
            packs = [load_pack(args.pack)]
        except ScenarioPackError as err:
            print(f"cannot load scenario pack: {err}", file=sys.stderr)
            return 2
    report = evaluate_accuracy(packs)
    print(report.format())
    if args.json_out:
        try:
            report.write_json(args.json_out)
        except OSError as err:
            print(f"cannot write {args.json_out}: {err}",
                  file=sys.stderr)
            return 2
    return 0


def run_explain(args) -> int:
    from repro.core.pipeline import NL2CM
    from repro.data.ontologies import load_merged_ontology
    from repro.oassis.engine import OassisEngine
    from repro.oassisql import parse_oassisql
    from repro.rdf.planner import QueryPlanner
    from repro.ui.admin import render_plan

    path = Path(args.explain)
    try:
        text = path.read_text("utf-8")
    except OSError as err:
        print(f"cannot read explain file: {err}", file=sys.stderr)
        return 2
    ontology = load_merged_ontology()
    if _looks_like_query(text):
        try:
            queries = [(path.name, parse_oassisql(text))]
        except ReproError as err:
            print(f"cannot parse query: {err}", file=sys.stderr)
            return 1
    else:
        questions = [
            line.strip() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if not questions:
            print("explain file contains no questions", file=sys.stderr)
            return 2
        nl2cm = NL2CM(ontology=ontology)
        queries = []
        for question in questions:
            try:
                queries.append(
                    (question, nl2cm.translate(question).query)
                )
            except ReproError as err:
                print(f"cannot translate {question!r}: {err}",
                      file=sys.stderr)
                return 1
    # One planner across the file, so repeated query shapes show up as
    # plan-cache hits in the panel.
    planner = QueryPlanner()
    for subject, query in queries:
        patterns = [OassisEngine._to_pattern(t) for t in query.where]
        print(f"# {subject}")
        print(render_plan(planner.explain(ontology.store, patterns)))
        print()
    return 0


def run_serve(args) -> int:
    """The ``--serve`` loop: tier up, wait for a signal, drain down.

    Shutdown order matters and is the graceful-drain contract: the HTTP
    server stops accepting and joins its in-flight handlers first (so
    every accepted request gets its response), the final stats panel
    and ``--metrics-out`` flush are taken while the workers still
    answer, and only then are the workers told to shut down and joined.
    """
    import signal
    import threading

    from repro.serving import HTTPFrontend, ShardManager, WorkerSpec
    from repro.ui.admin import render_serving_stats

    spec = WorkerSpec(
        cache_size=args.cache_size,
        retries=args.retries,
        seed=args.seed,
        faults=args.inject_faults,
        stage_timeout_ms=args.stage_timeout_ms,
        slow_log_ms=args.slow_log,
    )
    try:
        manager = ShardManager(
            max(1, args.shards),
            spec,
            start_method=args.start_method,
            max_pending=args.max_pending,
            request_timeout=args.request_timeout,
            warmup_keys=args.warmup_keys,
        )
    except ReproError as err:
        print(f"cannot start the worker tier: {err}", file=sys.stderr)
        return 1
    frontend = HTTPFrontend(manager, host=args.host, port=args.port)

    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
        signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
    }
    print(
        f"serving {manager.shards} shard(s) on {frontend.address} "
        f"(SIGTERM or ^C to drain and stop)",
        file=sys.stderr,
    )
    status = 0
    try:
        stop.wait()
    finally:
        frontend.close()          # stop accepting, drain handlers
        final = None
        try:
            final = manager.stats()
        except ReproError:        # a shard died during drain
            status = 1
        if args.metrics_out:
            try:
                Path(args.metrics_out).write_text(
                    manager.expose(), "utf-8"
                )
            except OSError as err:
                print(
                    f"cannot write metrics file: {err}", file=sys.stderr
                )
                status = 2
        manager.close()           # workers drain + join last
        if final is not None:
            print(render_serving_stats(final), file=sys.stderr)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.lint or args.lint_patterns or args.lint_kb or args.lint_pack:
        return run_lint(args)
    if args.score:
        return run_score(args)
    if args.explain:
        return run_explain(args)
    if args.serve:
        return run_serve(args)

    from repro.core.pipeline import NL2CM
    from repro.data.ontologies import load_merged_ontology
    from repro.service.service import TranslationService
    from repro.ui.interaction import ConsoleInteraction

    interaction = ConsoleInteraction() if args.interactive else None
    ontology = load_merged_ontology()
    nl2cm = NL2CM(ontology=ontology, interaction=interaction,
                  stage_timeout_ms=args.stage_timeout_ms)

    registry = MetricsRegistry()
    slow_log = (
        SlowQueryLog(threshold_ms=args.slow_log)
        if args.slow_log is not None else None
    )
    service = TranslationService(
        nl2cm,
        workers=max(1, args.workers),
        cache=args.cache_size if args.cache_size > 0 else None,
        registry=registry,
        slow_log=slow_log,
        resilience=ResilienceConfig.from_flags(
            args.retries, args.seed, args.inject_faults
        ),
    )
    engine = (
        demo_engine(nl2cm, args.crowd_size, args.seed,
                    registry=registry)
        if args.execute else None
    )

    try:
        if args.batch:
            status = run_batch(service, args)
        elif args.question:
            status = run_question(
                service, args, " ".join(args.question), engine
            )
        else:
            print("NL2CM — type a question (empty line to quit)")
            status = 0
            while True:
                try:
                    line = input("? ").strip()
                except EOFError:
                    break
                if not line:
                    break
                status = run_question(service, args, line, engine)
    finally:
        if slow_log is not None and slow_log.seen:
            print(slow_log.render(), file=sys.stderr)
        if args.metrics_out:
            try:
                Path(args.metrics_out).write_text(
                    registry.expose(), "utf-8"
                )
            except OSError as err:
                print(
                    f"cannot write metrics file: {err}", file=sys.stderr
                )
                status = 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
