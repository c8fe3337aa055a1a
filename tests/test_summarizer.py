"""Concept extraction, the coverage program, its exact solver, and ordering."""

import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathgloss import Query, solve_ilp, verify_selection
from mathgloss.corpus import Document, Sentence
from mathgloss.errors import EmptyPool, InstanceTooLarge
from mathgloss.selector import TimestampedDoc
from mathgloss.summarizer import (DEFAULT_MAX_NODES, Concept, IlpInstance, PoolSentence,
                                  Selection, _Search, build_instance, dump_instance,
                                  extract_concepts, instance_from_dict,
                                  instance_to_dict, load_instance,
                                  order_sentences, sentence_bigrams)
from mathgloss.textsim import EmbeddingStore
from oracles import (brute_force_solve, check_selection, extract_concepts_oracle, greedy_oracle,
                     random_corpus, random_instance, random_query, random_store)


def _text_doc(doc_id, title, texts):
    return Document(id=doc_id, title=title, leading_paragraph=texts[0],
                    sentences=tuple(Sentence(t, i) for i, t in enumerate(texts)),
                    math_items=())


def _plain_store(stopwords=()):
    return EmbeddingStore(dimension=2, vectors={}, stopwords=frozenset(stopwords))


# --------------------------------------------------------------------------
# bigrams and concept extraction

def test_bigrams_of_plain_sentence():
    assert sentence_bigrams(("fibonacci", "numbers", "grow"), frozenset()) == [
        ("fibonacci", "numbers"), ("numbers", "grow"),
    ]


def test_bigrams_bridge_removed_stopwords():
    tokens = ("sum", "of", "the", "squares")
    assert sentence_bigrams(tokens, frozenset({"of", "the"})) == [("sum", "squares")]


def test_bigrams_need_two_content_tokens():
    assert sentence_bigrams(("theorem",), frozenset()) == []
    assert sentence_bigrams(("the", "theorem"), frozenset({"the"})) == []


def test_extract_concepts_single_sentence():
    docs = [_text_doc("d1", "One", ["fibonacci numbers grow"])]
    query = Query.parse("a", "fibonacci")
    pool, concepts = extract_concepts(docs, query, _plain_store())
    assert [(c.bigram, c.weight) for c in concepts] == [
        (("fibonacci", "numbers"), 1), (("numbers", "grow"), 1),
    ]
    assert [ps.text for ps in pool] == ["fibonacci numbers grow"]


def test_extract_concepts_tokenizes_each_sentence_once(corpus, store, golden_query,
                                                       tokenize_calls):
    docs = [*list(corpus)[:4], _text_doc("d1", "Bare", ["fibonacci numbers", "?!", "grow"])]
    pool, _ = extract_concepts(docs, golden_query, store)
    texts = [s.text for doc in docs for s in doc.sentences]
    assert tokenize_calls == texts
    assert len(pool) == len(texts) - 1  # "?!" has no token


def test_extract_concepts_counts_across_pool():
    docs = [
        _text_doc("d1", "One", ["prime numbers grow", "prime numbers repeat"]),
        _text_doc("d2", "Two", ["prime numbers everywhere"]),
    ]
    query = Query.parse("a", "primes")
    _, concepts = extract_concepts(docs, query, _plain_store())
    weights = {c.bigram: c.weight for c in concepts}
    assert weights[("prime", "numbers")] == 3
    assert weights[("numbers", "grow")] == 1


def test_extract_concepts_counts_each_occurrence():
    docs = [_text_doc("d1", "One", ["loop again loop again"])]
    query = Query.parse("a", "loops")
    _, concepts = extract_concepts(docs, query, _plain_store())
    weights = {c.bigram: c.weight for c in concepts}
    assert weights[("loop", "again")] == 2  # twice within one sentence
    assert weights[("again", "loop")] == 1


def test_extract_concepts_pool_order_and_empty_sentences():
    docs = [
        _text_doc("d1", "One", ["alpha beta", "..."]),
        _text_doc("d2", "Two", ["gamma delta"]),
    ]
    query = Query.parse("a", "anything")
    pool, _ = extract_concepts(docs, query, _plain_store())
    assert [(ps.document, ps.position) for ps in pool] == [("One", 0), ("Two", 0)]


def test_extract_concepts_relevance_from_fixture_vectors(store, golden_query):
    docs = [_text_doc("d1", "One", ["right triangle rules"])]
    pool, concepts = extract_concepts(docs, golden_query, store)
    relevance = {c.bigram: c.relevance for c in concepts}
    assert relevance[("right", "triangle")] == 3 / math.sqrt(11)
    assert relevance[("triangle", "rules")] == 3 / math.sqrt(11)  # rules is unknown
    assert all(c.weight == 1 for c in concepts)


def test_extract_concepts_zero_relevance_when_absent(golden_query):
    docs = [_text_doc("d1", "One", ["alpha beta gamma"])]
    _, concepts = extract_concepts(docs, golden_query, _plain_store())
    assert all(c.relevance == 0.0 for c in concepts)


def _assert_concepts_match_oracle(docs, query, store):
    """Same pool, same concept order, bit-equal relevances, and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            expected_pool, expected = extract_concepts_oracle(docs, query, store)
        except EmptyPool:
            with pytest.raises(EmptyPool):
                extract_concepts(docs, query, store)
            return
        pool, concepts = extract_concepts(docs, query, store)
    assert pool == expected_pool
    assert ([(c.bigram, c.weight, float.hex(c.relevance)) for c in concepts]
            == [(c.bigram, c.weight, float.hex(c.relevance)) for c in expected])


def test_extract_concepts_matches_oracle_on_random_corpora():
    rng = random.Random(11)
    for _ in range(60):
        corpus, store = random_corpus(rng), random_store(rng)
        _assert_concepts_match_oracle(list(corpus), random_query(rng), store)


def test_extract_concepts_matches_oracle_over_several_blocks():
    # 40 words give hundreds of distinct bigrams, more than one block of means
    rng = random.Random(5)
    words = [f"t{i}" for i in range(40)]
    for _ in range(3):
        store = EmbeddingStore(dimension=6, stopwords=frozenset(rng.sample(words, 2)),
                               vectors={w: np.array([rng.gauss(0.0, 1.0) for _ in range(6)])
                                        for w in words if rng.random() < 0.9})
        docs = [_text_doc(f"d{d}", f"T{d}", [" ".join(rng.choices(words, k=20))
                                              for _ in range(10)]) for d in range(5)]
        query = Query.parse("a", " ".join(rng.choices(words, k=5)))
        assert len(extract_concepts(docs, query, store)[1]) > 600
        _assert_concepts_match_oracle(docs, query, store)


_EDGE_STORE = EmbeddingStore(dimension=3, stopwords=frozenset({"the"}), vectors={
    "plain": np.array([1.0, 2.0, -0.5]),
    "other": np.array([0.25, -1.0, 3.0]),
    "huge": np.array([1.7e308, -1.0, 1.7e308]),  # its sum with huger overflows
    "huger": np.array([1.6e308, 1e308, 1.0]),
    "big": np.array([1e200, -1e200, 1.0]),  # squared norm overflows, sum does not
    "tiny": np.array([1e-310, -3e-310, 0.0]),  # subnormal: cosine rescales
    "zero": np.array([0.0, 0.0, 0.0]),
    "negzero": np.array([-0.0, 1.0, -0.0]),
})


@pytest.mark.parametrize("context", [
    "plain other", "other negzero", "tiny", "huge", "big", "zero", "negzero",
    "missing absent the",  # no usable token: every relevance is 0
])
def test_extract_concepts_matches_oracle_on_edge_vectors(context):
    texts = ["plain missing",  # one token out of vocabulary
             "missing absent",  # both out of vocabulary
             "plain plain", "huge huger", "huge huge", "big big plain", "tiny tiny plain",
             "zero zero plain", "negzero negzero plain the other huger tiny big"]
    docs = [_text_doc("d1", "Edges", texts)]
    _assert_concepts_match_oracle(docs, Query.parse("a", context), _EDGE_STORE)


def test_all_stopword_pool_raises():
    docs = [_text_doc("d1", "One", ["the of and", "only single"])]
    query = Query.parse("a", "anything")
    with pytest.raises(EmptyPool):
        extract_concepts(docs, query,
                         _plain_store(stopwords={"the", "of", "and", "only", "single"}))


def test_one_content_token_per_sentence_raises():
    docs = [_text_doc("d1", "One", ["theorem", "proof"])]
    query = Query.parse("a", "anything")
    with pytest.raises(EmptyPool):
        extract_concepts(docs, query, _plain_store())


# --------------------------------------------------------------------------
# instance building

def _pool_and_concepts():
    docs = [_text_doc("d1", "One", ["fibonacci numbers grow",
                                    "numbers grow fast"])]
    query = Query.parse("a", "numbers")
    return extract_concepts(docs, query, _plain_store())


def test_build_instance_matrix():
    pool, concepts = _pool_and_concepts()
    instance = build_instance(pool, concepts, budget=10, sentence_cap=2,
                              stopwords=frozenset())
    assert [c.bigram for c in instance.concepts] == [
        ("fibonacci", "numbers"), ("numbers", "grow"), ("grow", "fast"),
    ]
    assert instance.covers == [(0, 1), (1, 2)]
    assert instance.lengths == [3, 3]
    assert instance.budget == 10
    assert instance.sentence_cap == 2


def test_lengths_count_stopwords_too():
    docs = [_text_doc("d1", "One", ["the sum of the squares stays"])]
    query = Query.parse("a", "sums")
    store = _plain_store(stopwords={"the", "of"})
    pool, concepts = extract_concepts(docs, query, store)
    instance = build_instance(pool, concepts, 100, 5, store.stopwords)
    assert instance.lengths == [6]  # raw token count, stopwords included
    assert [c.bigram for c in instance.concepts] == [
        ("sum", "squares"), ("squares", "stays"),
    ]


# --------------------------------------------------------------------------
# exact solver

def _tiny_instance(lengths, rows, weights, budget, cap, relevances=None):
    """An instance whose sentence j covers concept i where rows[j][i] is 1."""
    m = len(weights)
    relevances = relevances or [0.0] * m
    concepts = [Concept(bigram=(f"a{i}", f"b{i}"), weight=weights[i],
                        relevance=relevances[i]) for i in range(m)]
    return IlpInstance(sentences=[f"s{j}" for j in range(len(lengths))],
                       lengths=list(lengths), concepts=concepts,
                       covers=[tuple(i for i, v in enumerate(row) if v) for row in rows],
                       budget=budget, sentence_cap=cap)


def test_zero_budget_selects_nothing():
    instance = _tiny_instance([3, 4], [[1, 0], [0, 1]], [5, 5], budget=0, cap=2)
    assert solve_ilp(instance) == Selection(sentences=(), concepts=(), objective=0.0)


def test_zero_cap_selects_nothing():
    instance = _tiny_instance([3, 4], [[1, 0], [0, 1]], [5, 5], budget=100, cap=0)
    assert solve_ilp(instance) == Selection(sentences=(), concepts=(), objective=0.0)


def test_single_fitting_sentence_is_forced():
    instance = _tiny_instance([4], [[1, 1]], [2, 3], budget=4, cap=1,
                              relevances=[0.25, 0.5])
    selection = solve_ilp(instance)
    assert selection.sentences == (0,)
    assert selection.concepts == (0, 1)
    assert selection.objective == math.fsum([2 + 0.25, 3 + 0.5])


def test_budget_excludes_too_long_sentence():
    instance = _tiny_instance([9], [[1]], [7], budget=8, cap=1)
    assert solve_ilp(instance).sentences == ()


def test_cap_forces_choice_of_better_sentence():
    instance = _tiny_instance([2, 2], [[1, 0], [0, 1]], [1, 9], budget=10, cap=1)
    selection = solve_ilp(instance)
    assert selection.sentences == (1,)
    assert selection.objective == 9.0


def test_covering_concept_twice_counts_once():
    instance = _tiny_instance([2, 2], [[1], [1]], [7], budget=10, cap=2)
    selection = solve_ilp(instance)
    # both sentences cover the same concept; adding the second adds nothing,
    # so the lexicographically smallest optimum keeps just sentence 0
    assert selection.sentences == (0,)
    assert selection.objective == 7.0


def test_equal_optima_pick_lexicographically_smallest():
    # sentence 0 covers both concepts; sentences 1 and 2 cover one each
    instance = _tiny_instance([4, 2, 2], [[1, 1], [1, 0], [0, 1]],
                              [3, 4], budget=10, cap=3)
    selection = solve_ilp(instance)
    assert selection.sentences == (0,)
    assert selection.objective == 7.0


def test_solver_takes_worthwhile_longer_combination():
    instance = _tiny_instance(
        [5, 3, 3],
        [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [2, 2, 3, 3], budget=6, cap=2)
    selection = solve_ilp(instance)
    # the pair (1, 2) collects 6 against the single sentence 0's 4
    assert selection.sentences == (1, 2)
    assert selection.objective == 6.0


def _disjoint_instance(weights, budget, cap):
    """Sentence j has one word and covers concept j alone."""
    n = len(weights)
    rows = [[int(i == j) for i in range(n)] for j in range(n)]
    return _tiny_instance([1] * n, rows, weights, budget, cap)


def test_node_budget_exhaustion_raises():
    # twelve equal disjoint sentences under cap 3: every triple ties, and a
    # bound equal to the incumbent is never pruned, so the proof takes 286 nodes
    instance = _disjoint_instance([1] * 12, budget=12, cap=3)
    with pytest.raises(InstanceTooLarge) as excinfo:
        solve_ilp(instance, max_nodes=100)
    assert excinfo.value.nodes > 100
    assert solve_ilp(instance).sentences == (0, 1, 2)


def test_warm_start_gives_way_to_a_lexicographically_smaller_optimum():
    # sentence 2 covers the two concepts sentences 0 and 1 cover one each; both
    # greedy passes pick (2,), an optimum, yet (0, 1) is the smallest of the optima
    instance = _tiny_instance([1, 1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1], budget=2, cap=2)
    search = _Search(instance, max_nodes=100)
    assert search.greedy(per_word=True) == search.greedy(per_word=False) == ((2,), 0b11)
    assert solve_ilp(instance).sentences == (0, 1) == brute_force_solve(instance)[1]


def _tie_heavy_batch(count=300, seed=7):
    """Few concepts of equal weight and no relevance: most instances hold several optima."""
    rng = random.Random(seed)
    for draw in range(count):
        n, m = rng.randint(1, 12), rng.randint(1, 8)
        rows = [[int(rng.random() < 0.3) for _ in range(m)] for _ in range(n)]
        yield _tiny_instance([rng.randint(0, 3) for _ in range(n)], rows,
                             [rng.choice([1, 1, 2]) for _ in range(m)],
                             budget=rng.randint(0, 10), cap=1 + draw % 6)


def test_warm_started_solver_matches_oracle_on_tie_heavy_batch():
    for instance in _tie_heavy_batch():
        selection = solve_ilp(instance)
        assert (selection.objective, selection.sentences) == brute_force_solve(instance)


def test_incremental_greedy_matches_oracle():
    rng = random.Random(19)
    instances = list(_tie_heavy_batch(400, seed=19))  # lengths 0-3: some sentences are empty
    for draw in range(800):
        instance = random_instance(rng)
        for j in range(len(instance.lengths)):
            if rng.random() < 0.15:
                instance.lengths[j] = 0  # gain per word is infinite
        if draw % 2:  # zero and negative coefficients gain nothing
            instance.concepts = [Concept(c.bigram, rng.choice([0, 1, 2]),
                                         rng.choice([-3.0, 0.0, 0.5]))
                                 for c in instance.concepts]
        instances.append(instance)
    for instance in instances:
        search = _Search(instance, max_nodes=1)
        for per_word in (True, False):
            assert search.greedy(per_word) == greedy_oracle(instance, per_word)


@pytest.mark.parametrize("mutate,message", [
    pytest.param(lambda inst: inst.covers.__setitem__(0, (0, 2)), "ascending concept indices",
                 id="out of range"),
    pytest.param(lambda inst: inst.covers.__setitem__(0, (1, 0)), "ascending concept indices",
                 id="unsorted"),
    pytest.param(lambda inst: inst.covers.__setitem__(0, (1, 1)), "ascending concept indices",
                 id="duplicate"),
    pytest.param(lambda inst: inst.covers.__setitem__(0, (0.0,)), "ascending concept indices",
                 id="not an integer"),
    (lambda inst: setattr(inst, "budget", -1), "non-negative"),
    (lambda inst: inst.lengths.__setitem__(0, -2), "negative"),
    (lambda inst: inst.sentences.pop(), "disagree on length"),
])
def test_invalid_instances_rejected(mutate, message):
    instance = _tiny_instance([3, 4], [[1, 0], [0, 1]], [5, 5], budget=9, cap=2)
    mutate(instance)
    with pytest.raises(ValueError, match=message):
        solve_ilp(instance)


def test_verify_selection_rejects_corrupted_results():
    instance = _tiny_instance([3, 4], [[1, 0], [0, 1]], [5, 5], budget=9, cap=2)
    good = solve_ilp(instance)
    tight = _tiny_instance([3, 4], [[1, 0], [0, 1]], [5, 5], budget=1, cap=2)
    with pytest.raises(ValueError, match="budget"):
        verify_selection(tight, good)
    with pytest.raises(ValueError, match="concept 0 is covered but not selected"):
        verify_selection(instance, Selection(sentences=good.sentences,
                                             concepts=(), objective=0.0))
    with pytest.raises(ValueError, match="concept 1 is selected but uncovered"):
        verify_selection(instance, Selection(sentences=(0,), concepts=(0, 1),
                                             objective=good.objective))
    with pytest.raises(ValueError, match="objective"):
        verify_selection(instance, Selection(sentences=good.sentences,
                                             concepts=good.concepts,
                                             objective=good.objective + 1.0))
    with pytest.raises(ValueError, match="distinct, sorted"):
        verify_selection(instance, Selection(sentences=(1, 0),
                                             concepts=good.concepts,
                                             objective=good.objective))


def test_solver_matches_oracle_on_seeded_batch():
    rng = random.Random(31)
    for _ in range(40):
        instance = random_instance(rng, max_sentences=9, max_concepts=12)
        selection = solve_ilp(instance)
        objective, chosen = brute_force_solve(instance)
        assert selection.objective == objective
        assert selection.sentences == chosen
        assert check_selection(instance, selection) == []


def test_large_pool_uses_bounded_search_and_stays_exact():
    rng = random.Random(77)
    checked = 0
    while checked < 4:
        instance = random_instance(rng, max_sentences=36, max_concepts=14)
        if len(instance.lengths) < 22:
            continue
        checked += 1
        instance.sentence_cap = min(instance.sentence_cap, 4)
        selection = solve_ilp(instance)
        objective, chosen = brute_force_solve(instance)
        assert selection.objective == objective
        assert selection.sentences == chosen


def _large_pool_instance():
    # the 27th draw of this stream has 31 sentences and 54 concepts
    rng = random.Random(3)
    for _ in range(27):
        instance = random_instance(rng, max_sentences=36, max_concepts=60)
    instance.sentence_cap = 4
    return instance


def test_cap_and_budget_bound_proves_large_pool():
    # under cap 4 a bound that ignores the cap and the word budget ran out of
    # 20,000 nodes
    instance = _large_pool_instance()
    assert len(instance.lengths) >= 30
    selection = solve_ilp(instance, max_nodes=20_000)
    assert (selection.objective, selection.sentences) == brute_force_solve(instance)


def _nodes(instance):
    search = _Search(instance, max_nodes=DEFAULT_MAX_NODES)
    search.run()
    return search.nodes


def test_search_node_counts_are_pinned():
    # a change to the search order or its bounds moves these counts; a larger
    # one can push a query past a workload's node budget
    assert _nodes(_large_pool_instance()) == 1_698
    counts = [_nodes(instance) for instance in _tie_heavy_batch()]
    assert (sum(counts), max(counts)) == (13_615, 847)


def test_pool_longer_than_recursion_limit():
    n = sys.getrecursionlimit() + 100
    weights = list(range(n, 0, -1))
    for cap in (1, 2):
        selection = solve_ilp(_disjoint_instance(weights, budget=n, cap=cap))
        assert selection.sentences == tuple(range(cap))
        assert selection.objective == sum(weights[:cap])


_WEIGHTS = st.integers(min_value=1, max_value=4)
_RELEVANCES = st.floats(min_value=-1.0, max_value=1.0,
                        allow_nan=False, allow_infinity=False)


@st.composite
def _instances(draw, max_sentences=8, max_concepts=10):
    n = draw(st.integers(1, max_sentences))
    m = draw(st.integers(1, max_concepts))
    lengths = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    rows = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=m, max_size=m),
        min_size=n, max_size=n))
    weights = draw(st.lists(_WEIGHTS, min_size=m, max_size=m))
    relevances = draw(st.lists(_RELEVANCES, min_size=m, max_size=m))
    budget = draw(st.integers(0, 40))
    cap = draw(st.integers(0, n))
    return _tiny_instance(lengths, rows, weights, budget, cap, relevances)


@given(_instances())
@settings(max_examples=80)
def test_solver_matches_oracle_property(instance):
    selection = solve_ilp(instance)
    objective, chosen = brute_force_solve(instance)
    assert selection.objective == objective
    assert selection.sentences == chosen
    assert check_selection(instance, selection) == []


@given(_instances(max_sentences=6, max_concepts=8),
       st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=60)
def test_budget_monotonicity_property(instance, first, second):
    low, high = sorted((first, second))
    instance.budget = low
    low_objective = solve_ilp(instance).objective
    instance.budget = high
    high_objective = solve_ilp(instance).objective
    assert low_objective <= high_objective


# --------------------------------------------------------------------------
# ordering

def _pool_sentence(doc, position, text):
    return PoolSentence(document=doc, position=position, text=text,
                        tokens=tuple(text.split()))


def test_single_document_orders_by_position():
    pool = [_pool_sentence("A", 4, "late words here"),
            _pool_sentence("A", 1, "early words here")]
    timeline = [TimestampedDoc("A", 1.0)]
    description = order_sentences(
        Selection(sentences=(0, 1), concepts=(), objective=0.0), pool, timeline)
    assert [s.position for s in description.sentences] == [1, 4]
    assert description.word_count == 6


def test_multiple_documents_order_by_timeline():
    pool = [_pool_sentence("Late", 0, "late doc sentence"),
            _pool_sentence("Early", 1, "early doc second"),
            _pool_sentence("Early", 0, "early doc first"),
            _pool_sentence("Tail", 0, "never stamped")]
    timeline = [TimestampedDoc("Early", 0.9), TimestampedDoc("Late", 2.0),
                TimestampedDoc("Tail", None)]
    description = order_sentences(
        Selection(sentences=(0, 1, 2, 3), concepts=(), objective=0.0),
        pool, timeline)
    assert [(s.document, s.position) for s in description.sentences] == [
        ("Early", 0), ("Early", 1), ("Late", 0), ("Tail", 0),
    ]
    assert description.sentences[0].timestamp == 0.9
    assert description.sentences[-1].timestamp is None
    assert description.word_count == 11


def test_description_texts_property():
    pool = [_pool_sentence("A", 0, "only sentence")]
    description = order_sentences(
        Selection(sentences=(0,), concepts=(), objective=0.0),
        pool, [TimestampedDoc("A", 1.0)])
    assert description.texts == ["only sentence"]


# --------------------------------------------------------------------------
# instance serialization

def test_instance_round_trip(tmp_path):
    rng = random.Random(13)
    instance = random_instance(rng)
    path = tmp_path / "instance.json"
    dump_instance(instance, path)
    again = load_instance(path)
    assert again == instance  # float fields survive exactly via repr round-trip


def test_instance_dict_schema():
    instance = _tiny_instance([3], [[1, 0]], [1, 2], budget=5, cap=1)
    data = instance_to_dict(instance)
    assert set(data) == {"sentences", "lengths", "concepts", "weights",
                         "relevances", "covers", "budget", "sentence_cap"}
    assert data["covers"] == [[0]]
    assert instance_from_dict(data) == instance
