"""End-to-end tests for the NL2CM translator pipeline."""

import pytest

from repro.core.pipeline import NL2CM
from repro.errors import InteractionProtocolError, VerificationError
from repro.oassisql import parse_oassisql, print_oassisql
from repro.oassisql.ast import SupportThreshold, TopK
from repro.ui.interaction import ScriptedInteraction, VerifyIXRequest


@pytest.fixture(scope="module")
def nl2cm():
    return NL2CM()


FIGURE1 = """\
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


class TestFigure1EndToEnd:
    QUESTION = ("What are the most interesting places near Forest Hotel, "
                "Buffalo, we should visit in the fall?")

    def test_exact_figure1_text(self, nl2cm):
        result = nl2cm.translate(self.QUESTION)
        assert result.query_text == FIGURE1

    def test_output_parses_back(self, nl2cm):
        result = nl2cm.translate(self.QUESTION)
        assert parse_oassisql(result.query_text) == result.query

    def test_trace_covers_figure2_stages(self, nl2cm):
        result = nl2cm.translate(self.QUESTION)
        stages = result.trace.stages()
        for stage in ("verification", "nl-parsing", "ix-finder",
                      "ix-creator", "general-query-generator",
                      "individual-triple-creation", "query-composition",
                      "final-query"):
            assert stage in stages

    def test_trace_renders(self, nl2cm):
        result = nl2cm.translate(self.QUESTION)
        rendered = result.trace.render()
        assert "nl-parsing" in rendered
        assert "SELECT VARIABLES" in rendered

    def test_variable_phrases(self, nl2cm):
        result = nl2cm.translate(self.QUESTION)
        assert result.variable_phrases == {"x": "places"}


class TestDemoQuestions:
    """The other questions quoted in the paper translate sensibly."""

    def test_vegas_thrill_rides(self, nl2cm):
        result = nl2cm.translate(
            "Which hotel in Vegas has the best thrill ride?"
        )
        q = result.query
        assert len(q.where) == 4
        assert q.satisfying[0].qualifier == TopK(k=5)

    def test_camera_question(self, nl2cm):
        result = nl2cm.translate(
            "What type of digital camera should I buy?"
        )
        text = result.query_text
        assert "instanceOf CameraType" in text
        assert "[] buy $x" in text

    def test_chocolate_milk(self, nl2cm):
        result = nl2cm.translate("Is chocolate milk good for kids?")
        text = result.query_text
        assert 'Chocolate_Milk hasLabel "good for kids"' in text

    def test_rephrased_coffee_question(self, nl2cm):
        result = nl2cm.translate(
            "At what container should I store coffee?"
        )
        text = result.query_text
        assert "instanceOf Container" in text
        assert "[] store" in text

    def test_all_outputs_are_valid_oassisql(self, nl2cm):
        questions = [
            "Which hotel in Vegas has the best thrill ride?",
            "What type of digital camera should I buy?",
            "Is chocolate milk good for kids?",
            "Where do you visit in Buffalo?",
            "Can you recommend a romantic restaurant in Paris?",
            "Which fiber-rich dishes do people like to eat for breakfast?",
        ]
        for question in questions:
            result = nl2cm.translate(question)
            reparsed = parse_oassisql(result.query_text)
            assert reparsed == result.query, question


class TestVerificationIntegration:
    def test_unsupported_question_raises_with_tips(self, nl2cm):
        with pytest.raises(VerificationError) as err:
            nl2cm.translate("How should I store coffee?")
        assert err.value.tips

    def test_verify_method(self, nl2cm):
        assert not nl2cm.verify("Why is the sky blue?").ok
        assert nl2cm.verify("Where do you visit in Buffalo?").ok


class TestUncertainIXVerification:
    QUESTION = "Where do teenagers hang out?"

    def test_user_confirms_uncertain_ix(self, nl2cm):
        provider = ScriptedInteraction([[True], 0.1])
        result = nl2cm.translate(self.QUESTION, interaction=provider)
        assert any(
            isinstance(req, VerifyIXRequest)
            for req, _ in provider.transcript
        )
        assert "[] hang $x" in result.query_text

    def test_user_rejects_uncertain_ix(self, nl2cm):
        provider = ScriptedInteraction([[False]])
        result = nl2cm.translate(self.QUESTION, interaction=provider)
        assert "hang" not in result.query_text

    def test_auto_mode_accepts_uncertain(self, nl2cm):
        result = nl2cm.translate(self.QUESTION)
        assert "[] hang $x" in result.query_text

    def test_too_few_answers_raise_protocol_error(self, nl2cm):
        # A misbehaving provider that answers the verification dialog
        # with an empty list; zip() used to truncate this silently,
        # leaving the uncertain IX unreviewed.
        provider = ScriptedInteraction([[]])
        with pytest.raises(
            InteractionProtocolError, match=r"needs 1 answer\(s\)"
        ) as err:
            nl2cm.translate(self.QUESTION, interaction=provider)
        assert "returned 0" in str(err.value)

    def test_too_many_answers_raise_protocol_error(self, nl2cm):
        provider = ScriptedInteraction([[True, False, True]])
        with pytest.raises(InteractionProtocolError, match="returned 3"):
            nl2cm.translate(self.QUESTION, interaction=provider)

    def test_certain_ix_not_verified(self, nl2cm):
        provider = ScriptedInteraction([], strict=True)
        provider._answers = [5]  # only the LIMIT question is allowed
        result = nl2cm.translate(
            "What are the most interesting places in Paris?",
            interaction=provider,
        )
        assert not any(
            isinstance(req, VerifyIXRequest)
            for req, _ in provider.transcript
        )


class TestDisambiguationIntegration:
    def test_buffalo_dialogue_end_to_end(self):
        from repro.ui.interaction import DisambiguationRequest
        nl2cm = NL2CM()  # fresh feedback store
        provider = ScriptedInteraction([1, 0.1])
        result = nl2cm.translate(
            "Where do you visit in Buffalo?", interaction=provider
        )
        request = provider.transcript[0][0]
        assert isinstance(request, DisambiguationRequest)
        chosen = request.candidates[1]
        assert chosen.iri.local_name in result.query_text

    def test_feedback_survives_across_translations(self):
        nl2cm = NL2CM()
        provider = ScriptedInteraction([1, 0.1])
        nl2cm.translate("Where do you visit in Buffalo?",
                        interaction=provider)
        strict = ScriptedInteraction([0.1], strict=True)
        # Second run: only the threshold question remains.
        nl2cm.translate("Where do you visit in Buffalo?",
                        interaction=strict)


class TestTimings:
    def test_trace_timings_are_positive(self, nl2cm):
        result = nl2cm.translate("Where do you visit in Buffalo?")
        trace = result.trace
        assert trace.find("nl-parsing").elapsed >= 0
        assert trace.find("general-query-generator").elapsed >= 0


class TestConstructor:
    def test_there_is_no_tagger_option(self):
        with pytest.raises(TypeError):
            NL2CM(tagger="rules")
