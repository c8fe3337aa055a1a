"""The benchmark harness's view of the package: what benchmark/ imports still works.

Every `from mathgloss... import name` in benchmark/ (its tests included) and
scripts/ must resolve, so deleting or renaming a name they use fails here, in
the package's own tests.  benchmark/tracing.py composes describe's stages
through public names and must give describe's answers, and the seed-0
paper-pools answers and solver node counts are pinned: benchmark/expected.json
pins none of them, since they were taken when every such query ran out of nodes.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import mathgloss.summarizer
from mathgloss import MathGlossError, PipelineConfig, Query, describe, load_corpus

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_EXPR = "a^2+b^2=c^2"
GOLDEN_CONTEXT = "pythagorean theorem for the sides of a right triangle"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import corpusgen
        import outcome
        import tracing
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return outcome, tracing, corpusgen, workloads


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of each `from mathgloss[.module] import name` in the file."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
            and node.module.split(".")[0] == "mathgloss"
            for alias in node.names]


def test_benchmark_and_scripts_import_only_names_that_exist():
    files = sorted([*BENCH.rglob("*.py"), *(ROOT / "scripts").glob("*.py")])
    imports = {path.relative_to(ROOT).as_posix(): _package_imports(path) for path in files}
    for importer in ("benchmark/tracing.py", "benchmark/worker.py", "benchmark/pin.py",
                     "benchmark/tests/test_bench_corpusgen.py", "scripts/run_demo.py"):
        assert imports[importer], importer  # the scan sees what it guards
    missing = [(importer, module, name) for importer, names in imports.items()
               for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


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
    outcome, tracing, _, _ = bench
    config = PipelineConfig(corpus_path=FIXTURES / "corpus.jsonl",
                            vectors_path=FIXTURES / "vectors.txt",
                            stopwords_path=FIXTURES / "stopwords.txt")
    traced = _digest(outcome, lambda: tracing.traced_describe(
        expr, GOLDEN_CONTEXT, config, tracing.Tracer(), 0, tracing.LayerCounts()))
    untraced = _digest(outcome, lambda: describe(Query.parse(expr, GOLDEN_CONTEXT), config))
    assert not traced.startswith("raised:")
    assert traced == untraced


PAPER_POOLS_DIGEST = "2fd6a53595b90c8f"
PAPER_POOLS_NODES = [73, 210, 42, 81, 44, 235, 44, 171, 193, 289, 364, 161,
                     639, 1874, 110, 1301, 48, 54, 51, 75, 69, 140, 320, 132]


def test_paper_pools_seed_0_answers_and_node_counts_are_pinned(bench, tmp_path, monkeypatch):
    outcome, _, corpusgen, workloads = bench
    workload = workloads.WORKLOADS["paper-pools"]
    paths = corpusgen.generate(workload.corpus, 0, tmp_path)
    config = PipelineConfig(corpus_path=paths["corpus.jsonl"],
                            vectors_path=paths["vectors.txt"],
                            stopwords_path=paths["stopwords.txt"], **workload.settings)
    nodes = []
    run = mathgloss.summarizer._Search.run

    def counted_run(search):
        try:
            run(search)
        finally:
            nodes.append(search.nodes)

    monkeypatch.setattr(mathgloss.summarizer._Search, "run", counted_run)
    digests = []
    for q in corpusgen.read_queries(paths["queries.jsonl"]):
        description, trace = describe(Query.parse(q["expr"], q["context"]), config)
        digests.append(outcome.solved_digest(description.texts, trace.selected,
                                             trace.objective))
    assert nodes == PAPER_POOLS_NODES
    assert outcome.combined_digest(digests) == PAPER_POOLS_DIGEST
