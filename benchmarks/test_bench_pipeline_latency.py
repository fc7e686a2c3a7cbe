"""E6: per-stage pipeline latency (the admin-mode timings).

The admin monitor shows the intermediate outputs with timings; this
bench aggregates per-stage latency across the corpus and checks the
scaling with sentence length stays sane (rule-cascade parsing is
near-linear in tokens).
"""

from collections import defaultdict

from repro.data.corpus import supported_questions
from repro.eval.harness import format_table

STAGES = ("verification", "nl-parsing", "ix-detection", "ix-finder",
          "ix-creator", "ix-verification", "general-query-generator",
          "individual-triple-creation", "query-composition",
          "query-lint", "final-query")

# Top-level stages: their spans tile the root (the covering
# "ix-detection" span parents the finder/creator/verification rows),
# so summing them approximates the wall-clock total from below.
TOTAL_STAGES = ("verification", "nl-parsing", "ix-detection",
                "general-query-generator", "individual-triple-creation",
                "query-composition", "query-lint", "final-query")


def test_bench_stage_latency(nl2cm, report_writer):
    totals = defaultdict(float)
    wall = 0.0
    n = 0
    for question in supported_questions():
        result = nl2cm.translate(question.text)
        for span in result.trace.spans:
            totals[span.name] += span.elapsed
        wall += result.trace.total_seconds()
        n += 1

    total = sum(totals[stage] for stage in TOTAL_STAGES)
    rows = [
        [stage, f"{totals[stage] / n * 1000:.2f}"]
        for stage in STAGES
    ]
    rows.append(["TOTAL (stages)", f"{total / n * 1000:.2f}"])
    rows.append(["TOTAL (wall)", f"{wall / n * 1000:.2f}"])
    table = format_table(["stage", "mean ms/question"], rows)
    report_writer("E6-stage-latency", table)

    # The pipeline is interactive-speed (well under a second).
    assert total / n < 1.0
    # Stage spans can never sum past the covering root span.
    assert total <= wall
    # Static analysis must stay in the noise: < 5% of the mean total.
    assert totals["query-lint"] < 0.05 * total


def test_bench_length_scaling(nl2cm, report_writer):
    short = "Where do you visit in Buffalo?"
    long = ("What are the most interesting places near Forest Hotel, "
            "Buffalo, we should visit in the fall?")
    timings = {}
    for label, text in (("short", short), ("long", long)):
        result = nl2cm.translate(text)
        timings[label] = result.trace.total_seconds()
    table = format_table(
        ["sentence", "tokens", "total ms"],
        [
            ["short", len(short.split()), f"{timings['short']*1000:.2f}"],
            ["long", len(long.split()), f"{timings['long']*1000:.2f}"],
        ],
    )
    report_writer("E6-length-scaling", table)


def test_bench_full_translation(benchmark, nl2cm):
    questions = [q.text for q in supported_questions()[:10]]

    def translate_all():
        return [nl2cm.translate(t) for t in questions]

    results = benchmark(translate_all)
    assert len(results) == len(questions)
