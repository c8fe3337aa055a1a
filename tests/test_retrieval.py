"""Query parsing and topic ranking."""

import random

import numpy as np
import pytest

from mathgloss import Corpus, Query, rank_topics
from mathgloss.corpus import Document, Sentence
from mathgloss.errors import EmptyCorpus, ParseError
from mathgloss.retrieval import TopicIndex
from mathgloss.textsim import EmbeddingStore
from oracles import random_corpus, random_query, random_store, rank_topics_oracle


def test_query_parse_builds_tree_and_tokens():
    query = Query.parse("a+b", "The sum, of two sides.")
    assert query.source == "a+b"
    assert query.expression.root.label == "+"
    assert query.context_tokens == ("the", "sum", "of", "two", "sides")


def test_query_parse_rejects_bad_expression():
    with pytest.raises(ParseError):
        Query.parse("a+", "context")


def test_golden_top_three(golden_topics):
    assert [t.title for t in golden_topics] == [
        "Pythagorean theorem", "Right triangle", "Euclidean geometry",
    ]
    assert [t.score for t in golden_topics] == [
        1.986440050415621, 1.8398387664337814, 0.6917144638660747,
    ]


def test_golden_full_ranking_order(golden_query, corpus, store):
    full = rank_topics(golden_query, corpus, store, k=12)
    assert [t.title for t in full] == [
        "Pythagorean theorem", "Right triangle", "Euclidean geometry",
        "Golden ratio", "Triangle inequality", "Cassini's identity",
        "Binomial theorem", "Pascal's triangle", "Fibonacci number",
        "Bayes' theorem", "Euclidean distance", "Conditional probability",
    ]
    assert all(a.score >= b.score for a, b in zip(full, full[1:]))


def test_equal_scores_tie_break_on_title(golden_query, corpus, store):
    full = rank_topics(golden_query, corpus, store, k=12)
    binomial, pascal = full[6], full[7]
    assert binomial.title == "Binomial theorem"
    assert pascal.title == "Pascal's triangle"
    assert binomial.score == pascal.score  # a designed exact tie


def test_k_larger_than_corpus_returns_everything(golden_query, corpus, store):
    assert len(rank_topics(golden_query, corpus, store, k=99)) == 12


def test_k_must_be_positive(golden_query, corpus, store):
    with pytest.raises(ValueError):
        rank_topics(golden_query, corpus, store, k=0)


def test_empty_corpus_rejected(golden_query, store):
    with pytest.raises(EmptyCorpus):
        rank_topics(golden_query, Corpus({}), store)


def _doc(doc_id, title, lead, sources):
    from mathgloss.corpus import MathItem
    from mathgloss.mathtree import parse_expression
    items = tuple(
        MathItem(source=s, tree=parse_expression(s), context="", cites=())
        for s in sources
    )
    return Document(id=doc_id, title=title, leading_paragraph=lead,
                    sentences=(Sentence.make(lead, 0),), math_items=items)


def test_exact_expression_match_ranks_first():
    # no textual overlap anywhere: the tree term alone must decide
    corpus = Corpus({
        "Match": _doc("d1", "Match", "completely unrelated words", ["q+r"]),
        "Other": _doc("d2", "Other", "equally unrelated words", ["z^9"]),
    })
    store = EmbeddingStore(dimension=2, vectors={}, stopwords=frozenset())
    topics = rank_topics(Query.parse("q+r", "no vocabulary here"), corpus, store, k=2)
    assert topics[0].title == "Match"
    assert topics[0].score == 1.0
    assert topics[1].score < 1.0


def test_document_without_math_items_scores_text_only(golden_query, corpus, store):
    full = rank_topics(golden_query, corpus, store, k=12)
    scores = {t.title: t.score for t in full}
    # this document has no math items, so only the context cosine contributes
    assert scores["Euclidean geometry"] == 0.6917144638660747


def test_best_math_item_is_used_not_first_or_sum():
    corpus = Corpus({
        "Both": _doc("d1", "Both", "unrelated words", ["q+s", "q+r"]),
    })
    store = EmbeddingStore(dimension=2, vectors={}, stopwords=frozenset())
    topics = rank_topics(Query.parse("q+r", "noise"), corpus, store, k=1)
    # first item scores 2/3, second scores 1.0; the sum would exceed 1
    assert topics[0].score == 1.0


# --------------------------------------------------------------------------
# the inverted path index against the document-by-document oracle

def _bits(topics):
    return [(t.title, t.score.hex()) for t in topics]


def test_indexed_rank_equals_oracle_on_fixture(corpus, store):
    index = TopicIndex(corpus, store)
    contexts = ["pythagorean theorem for the sides of a right triangle",
                "probability of an event given another", "no vocabulary here"]
    for doc in corpus:
        for item in doc.math_items:
            for context in contexts:
                query = Query.parse(item.source, context)
                expected = _bits(rank_topics_oracle(query, corpus, store, k=12))
                assert _bits(index.rank(query, 12)) == expected
                assert _bits(rank_topics(query, corpus, store, k=12)) == expected


def test_indexed_rank_equals_oracle_on_random_corpora():
    rng = random.Random(606)
    for _ in range(150):
        corpus, store = random_corpus(rng, max_docs=12), random_store(rng)
        index = TopicIndex(corpus, store)  # one index serves many queries
        for _ in range(4):
            query, k = random_query(rng), rng.randint(1, 14)
            expected = _bits(rank_topics_oracle(query, corpus, store, k=k))
            assert _bits(index.rank(query, k)) == expected
            assert _bits(rank_topics(query, corpus, store, k=k)) == expected
