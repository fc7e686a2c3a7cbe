"""Tests for the top-level public API surface."""

import re

import pytest

import repro
import repro.service
import repro.serving


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_flow(self):
        nl2cm = repro.NL2CM()
        result = nl2cm.translate("Where do you visit in Buffalo?")
        assert isinstance(result.query, repro.OassisQuery)
        reparsed = repro.parse_oassisql(result.query_text)
        assert reparsed == result.query

    def test_docstring_example_runs(self):
        from repro.crowd.scenarios import buffalo_travel_truth
        from repro.data import load_merged_ontology

        nl2cm = repro.NL2CM()
        result = nl2cm.translate(
            "What are the most interesting places near Forest Hotel, "
            "Buffalo, we should visit in the fall?"
        )
        crowd = repro.SimulatedCrowd(
            buffalo_travel_truth(), size=150, seed=1
        )
        engine = repro.OassisEngine(load_merged_ontology(), crowd)
        answers = engine.evaluate(result.query)
        assert answers.bindings()
        assert all("x" in b for b in answers.bindings())


@pytest.mark.parametrize("module", [repro, repro.service, repro.serving],
                         ids=lambda m: m.__name__)
class TestLazyExports:
    def test_star_import_binds_exactly_all(self, module):
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(module.__all__)

    def test_dir_lists_every_export(self, module):
        assert set(dir(module)) >= set(module.__all__)

    def test_lazy_table_matches_all(self, module):
        assert set(module._LOCATIONS) == set(module.__all__) - {"__version__"}

    def test_unknown_name_names_the_module(self, module):
        expected = re.escape(f"module '{module.__name__}' has no attribute")
        with pytest.raises(AttributeError, match=expected):
            module.no_such_export
