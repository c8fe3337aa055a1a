"""The benchmark's corpus generator: determinism, loadability and designed properties."""

import dataclasses
import os
import random
import subprocess
import sys

import pytest

from mathgloss import Query, build_trg, load_corpus, load_vectors, rank_topics, tokenize
from mathgloss.mathtree import IMPLICIT_MUL, MathNode, parse_expression, tree_similarity

import corpusgen
from workloads import WORKLOADS

FILES = ("corpus.jsonl", "vectors.txt", "stopwords.txt", "queries.jsonl")
SMALL = WORKLOADS["small-pools"]
# the wide workload's shape at a fifth of its size, to keep the suite quick
WIDE = dataclasses.replace(WORKLOADS["wide-corpus"].corpus, documents=2000, queries=20)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    return corpusgen.generate(SMALL.corpus, 7, tmp_path_factory.mktemp("small"))


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    paths = corpusgen.generate(WIDE, 7, tmp_path_factory.mktemp("wide"))
    corpus = load_corpus(paths["corpus.jsonl"])
    return paths, corpus, load_vectors(paths["vectors.txt"], paths["stopwords.txt"])


def test_same_seed_gives_byte_identical_files(tmp_path):
    first = corpusgen.generate(SMALL.corpus, 11, tmp_path / "a")
    second = corpusgen.generate(SMALL.corpus, 11, tmp_path / "b")
    other = corpusgen.generate(SMALL.corpus, 12, tmp_path / "c")
    for name in FILES:
        assert first[name].read_bytes() == second[name].read_bytes(), name
    assert first["corpus.jsonl"].read_bytes() != other["corpus.jsonl"].read_bytes()
    assert first["queries.jsonl"].read_bytes() != other["queries.jsonl"].read_bytes()
    part = corpusgen.generate(SMALL.corpus, 11, tmp_path / "d", part=1)
    assert first["corpus.jsonl"].read_bytes() != part["corpus.jsonl"].read_bytes()


def test_files_do_not_depend_on_the_string_hash_seed(tmp_path):
    """run.py fixes PYTHONHASHSEED for timing; the inputs must not depend on it."""
    here = corpusgen.generate(SMALL.corpus, 11, tmp_path / "here")
    for hash_seed in ("1", "2"):
        subprocess.run([sys.executable, corpusgen.__file__, "--workload", SMALL.name,
                        "--seed", "11", "--out", str(tmp_path / hash_seed)],
                       check=True, env={**os.environ, "PYTHONHASHSEED": hash_seed})
        for name in FILES:
            written = tmp_path / hash_seed / "part0" / name
            assert written.read_bytes() == here[name].read_bytes(), name


def test_files_load_with_the_library_loaders(small):
    corpus = load_corpus(small["corpus.jsonl"])
    store = load_vectors(small["vectors.txt"], small["stopwords.txt"])
    assert len(corpus) == SMALL.corpus.documents
    assert store.dimension == corpusgen.DIMENSION
    assert store.stopwords == frozenset(corpusgen.STOPWORDS)
    queries = corpusgen.read_queries(small["queries.jsonl"])
    assert len(queries) == SMALL.corpus.queries
    for q in queries:
        Query.parse(q["expr"], q["context"])
        assert q["origin"] in corpus


def test_sentence_and_item_counts_follow_the_spec(small):
    corpus = load_corpus(small["corpus.jsonl"])
    low, high = SMALL.corpus.sentences
    assert all(low <= len(doc.sentences) <= high for doc in corpus)
    items = [len(doc.math_items) for doc in corpus if doc.math_items]
    assert min(items) >= SMALL.corpus.math_items[0]
    assert max(items) <= SMALL.corpus.math_items[1]


def test_designed_corpus_properties(wide):
    _, corpus, store = wide
    docs = list(corpus)
    assert sum(not doc.math_items for doc in docs) > 0.1 * len(docs)
    tokens = {t for doc in docs for s in doc.sentences for t in s.tokens}
    out_of_vocabulary = {t for t in tokens if t not in store and t not in store.stopwords}
    assert len(out_of_vocabulary) > 100
    graph, report = build_trg(corpus)
    assert report.dangling_dropped > 0
    assert report.self_dropped > 0
    in_degree = sorted((len(graph.inlinks(t)) for t in graph.vertices), reverse=True)
    mean = sum(in_degree) / len(in_degree)
    assert in_degree[0] > 20 * mean  # hub topics
    assert in_degree[len(in_degree) // 2] <= 2 * mean  # most documents are not hubs


def test_queries_are_perturbed_corpus_expressions_that_ranking_finds(wide):
    paths, corpus, store = wide
    queries = corpusgen.read_queries(paths["queries.jsonl"])
    found = 0
    for q in queries:
        query = Query.parse(q["expr"], q["context"])
        origin = corpus.get(q["origin"])
        assert q["expr"] not in {item.source for item in origin.math_items}
        assert max(tree_similarity(query.expression, item.tree) for item in origin.math_items) > 0
        assert set(tokenize(q["context"])) & set(tokenize(origin.leading_paragraph))
        found += q["origin"] in {t.title for t in rank_topics(query, corpus, store, k=3)}
    assert found >= 0.7 * len(queries)


def _expected_node(tree) -> MathNode:
    labels = {" ": IMPLICIT_MUL, r"\le": "le"}
    if len(tree) == 1:
        return MathNode(tree[0].lstrip("\\"))
    op, left, right = tree
    return MathNode(labels.get(op, op), (_expected_node(left), _expected_node(right)))


def test_rendered_expressions_parse_back_to_the_generated_tree():
    rng = random.Random(3)
    for _ in range(2000):
        tree = corpusgen._expression(rng)
        assert parse_expression(corpusgen.render(tree)).root == _expected_node(tree)
        changed = corpusgen.perturb(rng, tree)
        assert changed != tree
        assert parse_expression(corpusgen.render(changed)).root == _expected_node(changed)
