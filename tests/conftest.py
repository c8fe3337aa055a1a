"""Shared fixtures: the bundled corpus, vectors, graph, and golden query."""

from pathlib import Path

import pytest
from hypothesis import settings

import mathgloss.corpus
from mathgloss import Query, build_trg, load_corpus, load_vectors, rank_topics

FIXTURES = Path(__file__).parent / "fixtures"

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def fixture_paths():
    return {
        "corpus": FIXTURES / "corpus.jsonl",
        "vectors": FIXTURES / "vectors.txt",
        "stopwords": FIXTURES / "stopwords.txt",
    }


@pytest.fixture(scope="session")
def corpus(fixture_paths):
    return load_corpus(fixture_paths["corpus"])


@pytest.fixture(scope="session")
def store(fixture_paths):
    return load_vectors(fixture_paths["vectors"], fixture_paths["stopwords"])


@pytest.fixture(scope="session")
def graph_and_report(corpus):
    return build_trg(corpus)


@pytest.fixture(scope="session")
def graph(graph_and_report):
    return graph_and_report[0]


@pytest.fixture(scope="session")
def golden_query():
    return Query.parse("a^2+b^2=c^2",
                       "pythagorean theorem for the sides of a right triangle")


@pytest.fixture(scope="session")
def golden_topics(golden_query, corpus, store):
    return rank_topics(golden_query, corpus, store)


@pytest.fixture
def tokenize_calls(monkeypatch):
    """The texts mathgloss.corpus.tokenize is called on, in call order."""
    calls = []
    tokenize = mathgloss.corpus.tokenize

    def counting(text):
        calls.append(text)
        return tokenize(text)
    monkeypatch.setattr(mathgloss.corpus, "tokenize", counting)
    return calls
