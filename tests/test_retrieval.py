"""Query parsing and topic ranking."""

import math
import random
import sys

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
                    sentences=(Sentence(lead, 0),), math_items=items)


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
                assert _bits(index.rank(index.match(query), 12)) == expected
                assert _bits(rank_topics(query, corpus, store, k=12)) == expected


def test_indexed_rank_equals_oracle_on_random_corpora():
    rng = random.Random(606)
    for _ in range(150):
        corpus, store = random_corpus(rng, max_docs=12), random_store(rng)
        index = TopicIndex(corpus, store)  # one index serves many queries
        for _ in range(4):
            query, k = random_query(rng), rng.randint(1, 14)
            expected = _bits(rank_topics_oracle(query, corpus, store, k=k))
            assert _bits(index.rank(index.match(query), k)) == expected
            assert _bits(rank_topics(query, corpus, store, k=k)) == expected


# --------------------------------------------------------------------------
# the filter and refine of TopicIndex.rank against the oracle

def _lead_store(vectors, dimension):
    return EmbeddingStore(dimension=dimension,
                          vectors={w: np.asarray(v, dtype=np.float64) for w, v in vectors.items()},
                          stopwords=frozenset({"the"}))


def _lead_corpus(docs):
    """docs: (title, lead paragraph, math sources) triples."""
    return Corpus({title: _doc(f"d{i:02d}", title, lead, sources)
                   for i, (title, lead, sources) in enumerate(docs)})


def _assert_every_k_matches_oracle(corpus, store, query):
    """Every k from 1 to two past the corpus size."""
    index = TopicIndex(corpus, store)
    with np.errstate(over="ignore"):
        for k in range(1, len(corpus) + 3):
            expected = _bits(rank_topics_oracle(query, corpus, store, k=k))
            assert _bits(index.rank(index.match(query), k)) == expected, k


def test_filter_keeps_rounding_twins_at_the_kth_boundary():
    # 3v, 5v and 7v have one cosine with any query in exact arithmetic; rounded,
    # they differ in the last bits, so the k-th place falls between twins
    rng = random.Random(808)
    differing = 0
    for _ in range(60):
        dimension = rng.choice([3, 24, 50])
        base = [rng.uniform(-1.0, 1.0) for _ in range(dimension)]
        vectors = {f"w{m}": [m * x for x in base] for m in (3, 5, 7)}
        vectors["ctx"] = [rng.uniform(-1.0, 1.0) for _ in range(dimension)]
        store = _lead_store(vectors, dimension)
        titles = rng.sample([f"Twin {c}" for c in "ABCDEFGHI"], 9)
        corpus = _lead_corpus([(title, f"w{(3, 5, 7)[i % 3]}", ["a+b"])
                               for i, title in enumerate(titles)])
        query = Query.parse("a+b", "ctx")
        _assert_every_k_matches_oracle(corpus, store, query)
        scores = {t.score for t in rank_topics_oracle(query, corpus, store, k=9)}
        differing += len(scores) > 1
    assert differing > 10  # the twins do differ in rounding, in many draws


def test_filter_breaks_exact_ties_on_title():
    store = _lead_store({"alpha": [1.0, 2.0], "beta": [2.0, -1.0]}, 2)
    corpus = _lead_corpus([("Delta", "alpha", ["x^2"]), ("Alpha", "alpha", ["x^2"]),
                           ("Echo", "beta", []), ("Charlie", "alpha", ["x^2"]),
                           ("Bravo", "alpha", ["x^2"])])
    query = Query.parse("x^2", "alpha beta")
    _assert_every_k_matches_oracle(corpus, store, query)
    ranked = rank_topics(query, corpus, store, k=3)
    assert [t.title for t in ranked] == ["Alpha", "Bravo", "Charlie"]


def test_filter_with_documents_without_a_lead_vector():
    store = _lead_store({"alpha": [1.0, 0.5], "beta": [-0.3, 1.0]}, 2)
    corpus = _lead_corpus([("No lead", "the unknown words", ["a+b"]),
                           ("Empty lead", "", []),
                           ("Alpha", "alpha", ["a-b"]),
                           ("Beta", "beta", ["a+b"]),
                           ("No lead either", "zz", ["c"])])
    for context in ["alpha", "beta alpha", "the"]:
        _assert_every_k_matches_oracle(corpus, store, Query.parse("a+b", context))


def test_filter_with_a_query_context_without_usable_tokens():
    store = _lead_store({"alpha": [1.0, 0.5], "beta": [-0.3, 1.0]}, 2)
    corpus = _lead_corpus([("A", "alpha", ["a+b"]), ("B", "beta", ["a+b"]),
                           ("C", "alpha beta", ["a+c"]), ("D", "zz", [])])
    for context in ["the", "", "nothing in the vocabulary"]:
        query = Query.parse("a+b", context)
        _assert_every_k_matches_oracle(corpus, store, query)
        assert [t.score for t in rank_topics(query, corpus, store, k=4)] == [1.0, 1.0, 2 / 3, 0.0]


def test_filter_rescores_rows_outside_the_normal_range():
    # squared norms that underflow (subnormal and tiny components) or overflow
    # (components near the largest float) make cosine rescale; there are more
    # such rows than k, and queries of every scale
    big = sys.float_info.max
    vectors = {
        "sub": [5e-324, 0.0, 1e-310],
        "sub2": [0.0, -3e-320, 7e-315],
        "tiny": [1e-160, 2e-160, -1e-161],
        "huge": [1e308, -1e308, 5e307],
        "max": [big, big, -big],
        "max2": [big, -big / 3, big / 7],
        "plain": [0.5, -0.25, 1.0],
        "other": [0.1, 0.9, -0.4],
    }
    store = _lead_store(vectors, 3)
    corpus = _lead_corpus([("Sub", "sub", ["a"]), ("Sub two", "sub2", []),
                           ("Tiny", "tiny", ["a+b"]), ("Huge", "huge", []),
                           ("Max", "max", ["a+b"]), ("Max two", "max2", []),
                           ("Max pair", "max max2", ["b"]), ("Huge pair", "huge max", []),
                           ("Plain", "plain", ["a+b"]), ("Other", "other", []),
                           ("Mixed", "plain sub tiny", ["a"])])
    for context in ["plain", "other sub", "tiny", "sub", "huge", "max max2", "max plain"]:
        _assert_every_k_matches_oracle(corpus, store, Query.parse("a+b", context))



def test_filter_rescores_when_a_norm_or_their_product_underflows():
    # small*small is 1.55 * 2**-1074 exactly, rounded to 2 * 2**-1074: a filter
    # dividing by that norm would score the row 12% low
    small = math.sqrt(1.55) * 2.0 ** -537
    assert small * small == 2 * 2.0 ** -1074
    # a lead row against a large query: "Small" is the better match
    store = _lead_store({"small": [small, 0.0], "near": [1.0, 0.3287], "big": [1e8, 0.0]}, 2)
    corpus = _lead_corpus([("Small", "small", ["a+b"]), ("Near", "near", ["a+b"])])
    _assert_every_k_matches_oracle(corpus, store, Query.parse("a+b", "big"))
    # the query against large lead rows: "Wide" wins on the exact cosine
    store = _lead_store({"small": [small, 0.0], "wide": [1e8, 0.0], "skew": [1e8, 1.2e8]}, 2)
    corpus = _lead_corpus([("Wide", "wide", ["a+c"]), ("Skew", "skew", ["a+b"])])
    _assert_every_k_matches_oracle(corpus, store, Query.parse("a+b", "small"))
    # normal squared norms whose product underflows to 0.0
    store = _lead_store({"q": [1e-150, 0.0], "r": [1e-150, 1e-151], "plain": [1.0, 0.0]}, 2)
    corpus = _lead_corpus([("Tiny", "r", ["c"]), ("Plain", "plain", ["a+b"])])
    _assert_every_k_matches_oracle(corpus, store, Query.parse("a+b", "q"))

def _extreme_store(rng):
    """random_store with some words replaced by 3x, 5x or 7x copies of one
    vector and some scaled out of the normal range."""
    store = random_store(rng, dimension=rng.choice([2, 4, 24]))
    base = np.array([rng.uniform(-1.0, 1.0) for _ in range(store.dimension)])
    for word, vec in store.vectors.items():
        roll = rng.random()
        if roll < 0.3:
            store.vectors[word] = rng.choice((3.0, 5.0, 7.0)) * base
        elif roll < 0.45:
            store.vectors[word] = vec * rng.choice((1e-160, 1e-310, 1e150, 1e300, 1e308))
    return store


def test_filter_matches_oracle_on_random_extreme_corpora():
    rng = random.Random(707)
    for _ in range(120):
        corpus, store = random_corpus(rng, max_docs=14), _extreme_store(rng)
        index = TopicIndex(corpus, store)
        with np.errstate(over="ignore"):
            for _ in range(3):
                query, k = random_query(rng), rng.randint(1, 16)
                expected = _bits(rank_topics_oracle(query, corpus, store, k=k))
                assert _bits(index.rank(index.match(query), k)) == expected


def test_candidates_hold_every_document_that_can_reach_the_top_k():
    rng = random.Random(909)
    for _ in range(120):
        corpus, store = random_corpus(rng, max_docs=14), _extreme_store(rng)
        index = TopicIndex(corpus, store)
        with np.errstate(over="ignore"):
            for _ in range(3):
                query = random_query(rng)
                full = rank_topics_oracle(query, corpus, store, k=len(corpus))
                match = index.match(query)
                tree_terms = index.tree_terms(match)
                for k in range(1, len(corpus) + 1):
                    chosen = {index.titles[d]
                              for d in index.candidates(tree_terms, match.vector, k)}
                    kth = full[k - 1].score
                    assert {t.title for t in full if t.score >= kth} <= chosen
