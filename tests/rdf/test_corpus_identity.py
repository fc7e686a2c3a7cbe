"""The planner against the naive reference on every pack's real queries.

For each builtin scenario pack, every supported corpus question is
translated with that pack's own translator, and the WHERE clause of the
result is evaluated over the pack's ontology twice: through the
translator's query planner (as the OASSIS engine does) and through the
reference nested-loop join.  The solution multisets must be identical.
"""

import pytest

from repro.core.pipeline import NL2CM
from repro.data.scenario import builtin_pack_names, load_builtin_packs
from repro.oassis.engine import OassisEngine
from repro.ui.interaction import AutoInteraction
from tests.rdf.reference import canon, reference_bgp


@pytest.fixture(scope="module")
def packs():
    return {pack.name: pack for pack in load_builtin_packs()}


@pytest.mark.parametrize("name", builtin_pack_names())
def test_planner_matches_reference_on_pack_corpus(packs, name):
    pack = packs[name]
    nl2cm = NL2CM(
        ontology=pack.ontology,
        patterns=pack.patterns,
        vocabularies=pack.vocabularies,
        interaction=AutoInteraction(),
        kb_lint="off",
    )
    store = pack.ontology.store
    evaluated = 0
    for question in pack.corpus:
        if not question.supported:
            continue
        query = nl2cm.translate(question.text).query
        bgp = [OassisEngine._to_pattern(t) for t in query.where]
        if not bgp:
            continue
        planned = list(nl2cm.planner.solutions(store, bgp))
        assert canon(planned) == canon(reference_bgp(store, bgp)), (
            question.id
        )
        evaluated += 1
    assert evaluated, f"pack {name!r} has no WHERE clause to evaluate"
