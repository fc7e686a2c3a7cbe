"""NL2CM: A Natural Language Interface to Crowd Mining — reproduction.

Reproduction of Amsterdamer, Kukliansky and Milo, SIGMOD 2015, with all
substrates (NL parsing, RDF store and BGP evaluation, OASSIS-QL, the
OASSIS engine and a simulated crowd) implemented from scratch.  Quickstart::

    from repro import NL2CM

    nl2cm = NL2CM()
    result = nl2cm.translate(
        "What are the most interesting places near Forest Hotel, "
        "Buffalo, we should visit in the fall?"
    )
    print(result.query_text)   # the paper's Figure 1 query, exactly

Executing the translated query against a simulated crowd::

    from repro import EngineConfig, OassisEngine, SimulatedCrowd
    from repro.crowd.scenarios import buffalo_travel_truth
    from repro.data import load_merged_ontology

    crowd = SimulatedCrowd(buffalo_travel_truth(), size=150, seed=1)
    engine = OassisEngine(load_merged_ontology(), crowd)
    answers = engine.evaluate(result.query)
    for binding in answers.bindings():
        print(binding["x"].local_name)

Every name below is exported lazily (PEP 562): ``import repro`` loads
nothing else, and ``repro.X`` imports only the module that defines
``X``.  A translating process therefore never pays for the crowd, the
OASSIS engine, the evaluation harness or the HTTP tier.  A new
top-level export goes into ``_LOCATIONS``; ``__all__`` is built from it.
"""

from importlib import import_module

__version__ = "1.0.0"

_LOCATIONS = {
    "NL2CM": "repro.core.pipeline",
    "TranslationResult": "repro.core.pipeline",
    "VerificationResult": "repro.core.verification",
    "OassisQuery": "repro.oassisql",
    "parse_oassisql": "repro.oassisql",
    "print_oassisql": "repro.oassisql",
    "OassisEngine": "repro.oassis.engine",
    "EngineConfig": "repro.oassis.engine",
    "QueryResult": "repro.oassis.engine",
    "SimulatedCrowd": "repro.crowd.simulator",
    "GroundTruth": "repro.crowd.model",
    "TranslationService": "repro.service",
    "TranslationCache": "repro.service",
    "ServiceStats": "repro.service",
    "ShardManager": "repro.serving",
    "HTTPFrontend": "repro.serving",
    "HashRing": "repro.serving",
    "WorkerSpec": "repro.serving",
    "ServingStats": "repro.serving",
    "MetricsRegistry": "repro.obs",
    "SlowQueryLog": "repro.obs",
    "QueryPlanner": "repro.rdf.planner",
    "ResilienceConfig": "repro.resilience",
    "CircuitBreaker": "repro.resilience",
    "Deadline": "repro.resilience",
    "FaultPlan": "repro.resilience",
    "FlakyInteraction": "repro.resilience",
    "ResilientInteraction": "repro.resilience",
    "AutoInteraction": "repro.ui.interaction",
    "ScriptedInteraction": "repro.ui.interaction",
    "ConsoleInteraction": "repro.ui.interaction",
    "AnalysisReport": "repro.analysis",
    "Diagnostic": "repro.analysis",
    "Severity": "repro.analysis",
    "QueryLint": "repro.analysis",
    "PatternLint": "repro.analysis",
    "OntologyLint": "repro.analysis",
    "ScenarioLint": "repro.analysis",
    "ScenarioPack": "repro.data.scenario",
    "default_pack": "repro.data.scenario",
    "load_pack": "repro.data.scenario",
    "load_builtin_packs": "repro.data.scenario",
    "AccuracyReport": "repro.eval.accuracy",
    "evaluate_accuracy": "repro.eval.accuracy",
    "ReproError": "repro.errors",
    "TranslationError": "repro.errors",
    "VerificationError": "repro.errors",
    "QueryLintError": "repro.errors",
    "KBLintError": "repro.errors",
    "ScenarioPackError": "repro.errors",
}

__all__ = [*_LOCATIONS, "__version__"]


def __getattr__(name: str):
    module_name = _LOCATIONS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
