"""The benchmark harness's view of the package: what benchmark/ imports still works.

Every `from mathgloss... import name` in benchmark/ (its tests included) and
scripts/ must resolve, so deleting or renaming a name they use fails here, in
the package's own tests.  benchmark/tracing.py composes describe's stages
through public names and must give describe's answers.  Every seed-0 answer
and solver node count is pinned: the wide-corpus and small-pools answers must
equal benchmark/expected.json's, and the paper-pools answers are pinned here,
since expected.json's were taken when every such query ran out of nodes.
"""

import ast
import importlib
import json
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
# one row of 12 queries per corpus part
SMALL_POOLS_NODES = [
    27, 13, 15, 11, 10, 13, 16, 16, 17, 11, 15, 13,
    17, 15, 26, 15, 23, 12, 24, 17, 10, 13, 39, 10,
    14, 15, 13, 15, 16, 14, 14, 17, 16, 16, 16, 15,
    6, 10, 17, 15, 9, 12, 10, 17, 12, 36, 13, 13,
    12, 13, 12, 8, 14, 18, 19, 17, 15, 12, 9, 21,
    8, 40, 13, 9, 11, 9, 16, 12, 10, 9, 30, 12,
    13, 14, 9, 12, 49, 14, 15, 14, 21, 25, 12, 16,
    12, 16, 14, 17, 16, 12, 12, 12, 27, 14, 10, 26,
    13, 9, 12, 20, 12, 15, 18, 18, 21, 19, 13, 25,
    15, 15, 16, 9, 12, 15, 15, 16, 14, 13, 13, 11,
    11, 59, 13, 11, 11, 13, 15, 15, 15, 13, 12, 11,
    15, 15, 16, 14, 11, 16, 14, 16, 14, 21, 13, 15,
    15, 11, 11, 11, 114, 15, 16, 11, 17, 17, 15, 11,
    13, 11, 14, 12, 15, 8, 16, 13, 16, 14, 13, 17,
    12, 13, 13, 12, 17, 12, 13, 12, 10, 12, 12, 13,
    14, 10, 17, 12, 15, 11, 16, 13, 14, 13, 13, 11,
]
ANSWERED_NODES = {
    "wide-corpus": [10, 7, 11, 10, 7, 8, 12, 47, 20, 9, 8, 8,
                    9, 6, 10, 11, 10, 9, 9, 7, 9, 9, 14, 8],
    "small-pools": SMALL_POOLS_NODES,
}


def _answer_seed_0(bench, name, directory, monkeypatch):
    """Digests of every seed-0 query of the workload, one list per corpus part,
    and the solver's node count of each query, answered through describe."""
    outcome, _, corpusgen, workloads = bench
    workload = workloads.WORKLOADS[name]
    nodes = []
    run = mathgloss.summarizer._Search.run

    def counted_run(search):
        try:
            run(search)
        finally:
            nodes.append(search.nodes)

    monkeypatch.setattr(mathgloss.summarizer._Search, "run", counted_run)
    parts = []
    for part in range(workload.corpora):
        paths = corpusgen.generate(workload.corpus, 0, directory / f"part{part}", part)
        config = PipelineConfig(corpus_path=paths["corpus.jsonl"],
                                vectors_path=paths["vectors.txt"],
                                stopwords_path=paths["stopwords.txt"], **workload.settings)
        digests = []
        for q in corpusgen.read_queries(paths["queries.jsonl"]):
            description, trace = describe(Query.parse(q["expr"], q["context"]), config)
            digests.append(outcome.solved_digest(description.texts, trace.selected,
                                                 trace.objective))
        parts.append(digests)
    return parts, nodes


def test_paper_pools_seed_0_answers_and_node_counts_are_pinned(bench, tmp_path, monkeypatch):
    outcome = bench[0]
    (digests,), nodes = _answer_seed_0(bench, "paper-pools", tmp_path, monkeypatch)
    assert nodes == PAPER_POOLS_NODES
    assert outcome.combined_digest(digests) == PAPER_POOLS_DIGEST


@pytest.mark.parametrize("name", ANSWERED_NODES)
def test_answered_workloads_seed_0_answers_and_node_counts_are_pinned(bench, tmp_path,
                                                                      monkeypatch, name):
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    assert expected["seed"] == 0
    parts, nodes = _answer_seed_0(bench, name, tmp_path, monkeypatch)
    assert parts == expected["workloads"][name]
    assert nodes == ANSWERED_NODES[name]
