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
"""

from repro.analysis import (
    AnalysisReport,
    Diagnostic,
    OntologyLint,
    PatternLint,
    QueryLint,
    ScenarioLint,
    Severity,
)
from repro.core.pipeline import NL2CM, TranslationResult
from repro.core.verification import VerificationResult
from repro.crowd.model import GroundTruth
from repro.crowd.simulator import SimulatedCrowd
from repro.data.scenario import (
    ScenarioPack,
    default_pack,
    load_builtin_packs,
    load_pack,
)
from repro.eval.accuracy import AccuracyReport, evaluate_accuracy
from repro.errors import (
    KBLintError,
    QueryLintError,
    ReproError,
    ScenarioPackError,
    TranslationError,
    VerificationError,
)
from repro.oassis.engine import EngineConfig, OassisEngine, QueryResult
from repro.oassisql import OassisQuery, parse_oassisql, print_oassisql
from repro.obs import MetricsRegistry, SlowQueryLog
from repro.rdf.planner import QueryPlanner
from repro.resilience import (
    ChaosCrowd,
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FlakyInteraction,
    ResilienceConfig,
    ResilientCrowd,
    ResilientInteraction,
    RetryPolicy,
)
from repro.service import (
    ServiceStats,
    TranslationCache,
    TranslationService,
)
from repro.serving import (
    HashRing,
    HTTPFrontend,
    ServingStats,
    ShardManager,
    WorkerSpec,
)
from repro.ui.interaction import (
    AutoInteraction,
    ConsoleInteraction,
    ScriptedInteraction,
)

__version__ = "1.0.0"

__all__ = [
    "NL2CM",
    "TranslationResult",
    "VerificationResult",
    "OassisQuery",
    "parse_oassisql",
    "print_oassisql",
    "OassisEngine",
    "EngineConfig",
    "QueryResult",
    "SimulatedCrowd",
    "GroundTruth",
    "TranslationService",
    "TranslationCache",
    "ServiceStats",
    "ShardManager",
    "HTTPFrontend",
    "HashRing",
    "WorkerSpec",
    "ServingStats",
    "MetricsRegistry",
    "SlowQueryLog",
    "QueryPlanner",
    "ResilienceConfig",
    "RetryPolicy",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FlakyInteraction",
    "ChaosCrowd",
    "ResilientInteraction",
    "ResilientCrowd",
    "AutoInteraction",
    "ScriptedInteraction",
    "ConsoleInteraction",
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "QueryLint",
    "PatternLint",
    "OntologyLint",
    "ScenarioLint",
    "ScenarioPack",
    "default_pack",
    "load_pack",
    "load_builtin_packs",
    "AccuracyReport",
    "evaluate_accuracy",
    "ReproError",
    "TranslationError",
    "VerificationError",
    "QueryLintError",
    "KBLintError",
    "ScenarioPackError",
    "__version__",
]
