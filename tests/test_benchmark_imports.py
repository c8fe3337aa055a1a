"""The benchmark harness's view of the package: what benchmark/ imports still works.

benchmark/tracing.py composes describe's stages through public names, and
benchmark/outcome.py digests the answers.  A rename or signature change in
src/ that breaks them fails here, in the package's own tests.
"""

import sys
from pathlib import Path

import pytest

from mathgloss import MathGlossError, PipelineConfig, Query, describe, load_corpus

BENCH = Path(__file__).resolve().parents[1] / "benchmark"
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_EXPR = "a^2+b^2=c^2"
GOLDEN_CONTEXT = "pythagorean theorem for the sides of a right triangle"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import outcome
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return outcome, tracing


def _fixture_expressions() -> list[str]:
    return [item.source for doc in load_corpus(FIXTURES / "corpus.jsonl")
            for item in doc.math_items]


def _digest(outcome, run) -> str:
    try:
        description, trace = run()
    except MathGlossError as exc:
        return outcome.failed_digest(type(exc).__name__)
    return outcome.solved_digest(description.texts, trace.selected, trace.objective)


@pytest.mark.parametrize("expr", list(dict.fromkeys([GOLDEN_EXPR, *_fixture_expressions()])))
def test_traced_describe_matches_describe(bench, expr):
    outcome, tracing = bench
    config = PipelineConfig(corpus_path=FIXTURES / "corpus.jsonl",
                            vectors_path=FIXTURES / "vectors.txt",
                            stopwords_path=FIXTURES / "stopwords.txt")
    traced = _digest(outcome, lambda: tracing.traced_describe(
        expr, GOLDEN_CONTEXT, config, tracing.Tracer(), 0, tracing.LayerCounts()))
    untraced = _digest(outcome, lambda: describe(Query.parse(expr, GOLDEN_CONTEXT), config))
    assert not traced.startswith("raised:")
    assert traced == untraced
