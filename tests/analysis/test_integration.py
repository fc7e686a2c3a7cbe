"""Lint wiring: the pipeline stage and the serving-layer counters."""

from types import SimpleNamespace

import pytest

from repro.analysis import AnalysisReport, Diagnostic, Severity
from repro.core.pipeline import NL2CM, TranslationTrace
from repro.errors import QueryLintError
from repro.oassisql import parse_oassisql
from repro.service import TranslationService
from repro.ui.admin import render_service_stats

QUESTION = "Where do you visit in Buffalo?"

BROKEN_QUERY = parse_oassisql(
    "SELECT VARIABLES\nWHERE\n{[] instanceOf Place}", validate=False
)


@pytest.fixture(scope="module")
def nl2cm():
    return NL2CM()


class TestPipelineStage:
    def test_trace_contains_query_lint_stage(self, nl2cm):
        result = nl2cm.translate(QUESTION)
        stages = result.trace.stages()
        assert "query-lint" in stages
        # After composition, before the final query rendering.
        assert stages.index("query-composition") < stages.index(
            "query-lint"
        ) < stages.index("final-query")

    def test_clean_translation_carries_empty_report(self, nl2cm):
        result = nl2cm.translate(QUESTION)
        assert result.lint is not None
        assert result.lint.ok

    def test_error_mode_raises_on_broken_query(self, nl2cm, monkeypatch):
        monkeypatch.setattr(
            nl2cm.composer, "compose",
            lambda *a, **k: SimpleNamespace(query=BROKEN_QUERY),
        )
        with pytest.raises(QueryLintError) as excinfo:
            nl2cm.translate(QUESTION)
        report = excinfo.value.report
        assert "anything-in-where" in report.rules_fired()
        assert "anything-in-where" in str(excinfo.value)

    def test_warn_mode_keeps_report_without_raising(self, monkeypatch):
        nl2cm = NL2CM(lint="warn")
        monkeypatch.setattr(
            nl2cm.composer, "compose",
            lambda *a, **k: SimpleNamespace(query=BROKEN_QUERY),
        )
        result = nl2cm.translate(QUESTION)
        assert result.lint.has_errors
        assert "query-lint" in result.trace.stages()

    def test_off_mode_skips_the_stage(self):
        nl2cm = NL2CM(lint="off")
        result = nl2cm.translate(QUESTION)
        assert result.lint is None
        assert "query-lint" not in result.trace.stages()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="lint must be one of"):
            NL2CM(lint="loud")

    def test_lint_stage_is_cheap(self, nl2cm):
        result = nl2cm.translate(QUESTION)
        lint_span = result.trace.find("query-lint")
        assert lint_span.elapsed < result.trace.total_seconds()


def make_result(text, lint):
    trace = TranslationTrace()
    with trace.span("translate"):
        trace.add("query-lint", "(no diagnostics)", 0.001)
    return SimpleNamespace(
        text=text, query=None, query_text="SELECT VARIABLES",
        graph=None, ixs=[], composed=None, trace=trace, lint=lint,
    )


def error_report():
    report = AnalysisReport(subject="q")
    report.add(Diagnostic(
        rule="anything-in-where", severity=Severity.ERROR, message="bad",
    ))
    report.add(Diagnostic(
        rule="where-ground-triple", severity=Severity.WARNING,
        message="meh",
    ))
    return report


class FakeNL2CM:
    """Duck-typed translator: returns canned results per question."""

    def __init__(self, reports):
        self.interaction = SimpleNamespace(cache_fingerprint="fp")
        self.ontology = None
        self.reports = reports
        self.calls = 0

    def translate(self, text, provider=None):
        self.calls += 1
        outcome = self.reports[text]
        if isinstance(outcome, QueryLintError):
            raise outcome
        return make_result(text, outcome)


class TestServiceCounters:
    def test_lint_counters_accumulate(self):
        fake = FakeNL2CM({"q1": error_report()})
        service = TranslationService(fake, cache=None)
        service.translate("q1")
        stats = service.stats()
        assert stats.lint_errors == 1
        assert stats.lint_warnings == 1
        assert stats.lint_infos == 0

    def test_error_results_are_not_cached(self):
        fake = FakeNL2CM({"q1": error_report()})
        service = TranslationService(fake, cache=8)
        service.translate("q1")
        service.translate("q1")
        # Both calls ran the pipeline: the ERROR result was refused.
        assert fake.calls == 2
        assert service.stats().served_from_cache == 0

    def test_clean_results_are_cached(self):
        fake = FakeNL2CM({"q1": AnalysisReport(subject="q1")})
        service = TranslationService(fake, cache=8)
        service.translate("q1")
        service.translate("q1")
        assert fake.calls == 1
        assert service.stats().served_from_cache == 1

    def test_querylint_error_counts_diagnostics(self):
        fake = FakeNL2CM({"q1": QueryLintError(error_report())})
        service = TranslationService(fake, cache=8)
        with pytest.raises(QueryLintError):
            service.translate("q1")
        stats = service.stats()
        assert stats.errors == 1
        assert stats.lint_errors == 1
        assert stats.lint_warnings == 1

    def test_reset_clears_lint_counters(self):
        fake = FakeNL2CM({"q1": error_report()})
        service = TranslationService(fake, cache=None)
        service.translate("q1")
        service.reset_stats()
        assert service.stats().lint_errors == 0


class TestAdminRendering:
    def test_service_stats_panel_shows_lint_line(self):
        fake = FakeNL2CM({"q1": error_report()})
        service = TranslationService(fake, cache=None)
        service.translate("q1")
        panel = render_service_stats(service.stats())
        assert "lint diagnostics: 1 error(s)" in panel
        assert "query-lint" in panel

