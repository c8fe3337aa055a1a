"""Relevant-document selection and timeline extraction."""

import logging
import math
import random

from hypothesis import example, given
from hypothesis import strategies as st

from mathgloss import Corpus, Query, build_trg, extract_timeline, select_relevant
from mathgloss.corpus import Document, MathItem, Sentence
from mathgloss.mathtree import parse_expression
from mathgloss.retrieval import Topic, TopicIndex
from mathgloss.selector import TimestampedDoc
from mathgloss.trg import Edge
from oracles import (doc_query_sim, edge_query_sim, random_corpus, random_hub_corpus,
                     random_query, random_store, select_relevant_oracle, timeline_oracle)

GOLDEN_DOCUMENTS = [
    "Pythagorean theorem", "Euclidean distance", "Right triangle",
    "Right triangle", "Pythagorean theorem", "Pythagorean theorem",
    "Euclidean geometry", "Triangle inequality",
]

GOLDEN_TIMELINE = [
    ("Right triangle", 0.9),
    ("Euclidean geometry", 0.9),
    ("Pythagorean theorem", 1.0),
    ("Euclidean distance", 1.1),
    ("Triangle inequality", None),
]


# --------------------------------------------------------------------------
# similarity terms, as the selection oracle computes them

def test_edge_query_sim_pins_both_terms(golden_query, store):
    edge = Edge(source="X", target="Y", item=0,
                expression=parse_expression("a^2+b^2=c^2"),
                expression_source="a^2+b^2=c^2",
                context="right triangle")
    # context average is the pure first-axis vector, expression matches fully
    assert edge_query_sim(edge, golden_query, store) == 3 / math.sqrt(11) + 1.0


def test_edge_query_sim_absent_context_counts_zero(golden_query, store):
    edge = Edge(source="X", target="Y", item=0, expression=parse_expression("z"),
                expression_source="z", context="the of and")
    assert edge_query_sim(edge, golden_query, store) == 0.0


def test_doc_query_sim_golden_values(corpus, golden_query, store):
    assert doc_query_sim(corpus.get("Right triangle"), golden_query, store) == \
        0.8398387664337814
    assert doc_query_sim(corpus.get("Euclidean distance"), golden_query, store) == 0.0


# --------------------------------------------------------------------------
# document selection

def test_golden_document_selection(graph, golden_topics, golden_query, store):
    docs = select_relevant(graph, golden_topics, golden_query, store)
    assert [d.title for d in docs] == GOLDEN_DOCUMENTS


def test_selection_size_bound(graph, golden_topics, golden_query, store):
    docs = select_relevant(graph, golden_topics, golden_query, store)
    assert len(docs) <= 3 * len(golden_topics)


def _doc(doc_id, title, lead, cites=(), source="a+b", context="plain words"):
    items = ()
    if cites or source != "a+b" or context != "plain words":
        items = (MathItem(source=source, tree=parse_expression(source),
                          context=context, cites=tuple(cites)),)
    return Document(id=doc_id, title=title, leading_paragraph=lead,
                    sentences=(Sentence(lead, 0),), math_items=items)


def test_isolated_seed_contributes_only_itself(store):
    corpus = Corpus({
        "Lonely": _doc("d1", "Lonely", "no citation anywhere"),
        "Other": _doc("d2", "Other", "equally alone"),
    })
    graph, _ = build_trg(corpus)
    docs = select_relevant(graph, [Topic("Lonely", 1.0)],
                           Query.parse("a", "anything"), store)
    assert [d.title for d in docs] == ["Lonely"]


def test_single_in_and_outlink_selected(store):
    corpus = Corpus({
        "Seed": _doc("d1", "Seed", "seed lead", cites=["Cited"]),
        "Cited": _doc("d2", "Cited", "cited lead"),
        "Citing": _doc("d3", "Citing", "citing lead", cites=["Seed"]),
    })
    graph, _ = build_trg(corpus)
    docs = select_relevant(graph, [Topic("Seed", 1.0)],
                           Query.parse("a", "anything"), store)
    assert [d.title for d in docs] == ["Seed", "Citing", "Cited"]


def test_argmax_tie_keeps_earliest_edge(store):
    # two citing documents with identical leads, expressions, and contexts
    # score identically; the edge built first must win
    corpus = Corpus({
        "Seed": _doc("d1", "Seed", "seed lead"),
        "First": _doc("d2", "First", "same lead", cites=["Seed"]),
        "Second": _doc("d3", "Second", "same lead", cites=["Seed"]),
    })
    graph, _ = build_trg(corpus)
    docs = select_relevant(graph, [Topic("Seed", 1.0)],
                           Query.parse("a", "anything"), store)
    assert [d.title for d in docs] == ["Seed", "First"]


def test_missing_topics_are_skipped_with_warning(graph, golden_topics,
                                                 golden_query, store, caplog):
    topics = [Topic("Ghost topic", 9.9)] + list(golden_topics)
    with caplog.at_level(logging.WARNING, logger="mathgloss.selector"):
        docs = select_relevant(graph, topics, golden_query, store)
    assert [d.title for d in docs] == GOLDEN_DOCUMENTS
    assert any("skipped" in message for message in caplog.messages)


def test_duplicates_are_retained(graph, golden_topics, golden_query, store):
    docs = select_relevant(graph, golden_topics, golden_query, store)
    titles = [d.title for d in docs]
    assert titles.count("Pythagorean theorem") == 3  # dedup happens later


# --------------------------------------------------------------------------
# timeline extraction

def test_golden_timeline(graph, golden_topics, golden_query, store):
    docs = select_relevant(graph, golden_topics, golden_query, store)
    timeline = extract_timeline(graph, golden_topics, docs)
    assert [(td.document, td.timestamp) for td in timeline] == GOLDEN_TIMELINE


def _timeline(graph, topic_titles, corpus, doc_titles):
    topics = [Topic(t, 1.0) for t in topic_titles]
    docs = [corpus.get(t) for t in doc_titles]
    return [(td.document, td.timestamp)
            for td in extract_timeline(graph, topics, docs)]


def _three_doc_corpus():
    return Corpus({
        "A": _doc("d1", "A", "a lead", cites=["B"]),
        "B": _doc("d2", "B", "b lead"),
        "C": _doc("d3", "C", "c lead"),
    })


def test_cited_neighbour_precedes_its_seed():
    corpus = _three_doc_corpus()
    graph, _ = build_trg(corpus)
    assert _timeline(graph, ["A", "C"], corpus, ["A", "B", "C"]) == [
        ("B", 0.9), ("A", 1.0), ("C", 2.0),
    ]


def test_citing_neighbour_follows_its_seed():
    corpus = Corpus({
        "A": _doc("d1", "A", "a lead"),
        "X": _doc("d2", "X", "x lead", cites=["A"]),
    })
    graph, _ = build_trg(corpus)
    assert _timeline(graph, ["A"], corpus, ["A", "X"]) == [
        ("A", 1.0), ("X", 1.1),
    ]


def test_single_seed_without_edges():
    corpus = _three_doc_corpus()
    graph, _ = build_trg(corpus)
    assert _timeline(graph, ["C"], corpus, ["C"]) == [("C", 1.0)]


def test_duplicates_collapse_to_first_occurrence():
    corpus = _three_doc_corpus()
    graph, _ = build_trg(corpus)
    assert _timeline(graph, ["A"], corpus, ["A", "C", "A", "C"]) == [
        ("A", 1.0), ("C", None),
    ]


def test_unassigned_documents_trail_in_pool_order():
    corpus = Corpus({
        "A": _doc("d1", "A", "a lead"),
        "B": _doc("d2", "B", "b lead"),
        "C": _doc("d3", "C", "c lead"),
    })
    graph, _ = build_trg(corpus)
    assert _timeline(graph, ["A"], corpus, ["C", "A", "B"]) == [
        ("A", 1.0), ("C", None), ("B", None),
    ]


def test_neighbour_shared_by_two_seeds_keeps_first_assignment():
    corpus = Corpus({
        "A": _doc("d1", "A", "a lead", cites=["X"]),
        "B": _doc("d2", "B", "b lead", cites=["X"]),
        "X": _doc("d3", "X", "x lead"),
    })
    graph, _ = build_trg(corpus)
    assert _timeline(graph, ["A", "B"], corpus, ["A", "B", "X"]) == [
        ("X", 0.9), ("A", 1.0), ("B", 2.0),
    ]


def test_seed_absent_from_pool_is_skipped():
    corpus = _three_doc_corpus()
    graph, _ = build_trg(corpus)
    assert _timeline(graph, ["A"], corpus, ["B"]) == [("B", None)]


def test_equal_timestamps_keep_assignment_order():
    # two documents cited by the same seed share a timestamp; the one whose
    # edge was scanned first stays first
    corpus = Corpus({
        "S": Document(id="d1", title="S", leading_paragraph="s lead",
                      sentences=(Sentence("s lead", 0),),
                      math_items=(MathItem(source="a+b",
                                           tree=parse_expression("a+b"),
                                           context="c", cites=("P", "Q")),)),
        "P": _doc("d2", "P", "p lead"),
        "Q": _doc("d3", "Q", "q lead"),
    })
    graph, _ = build_trg(corpus)
    # pool order Q-before-P makes the scan hit Q first
    assert _timeline(graph, ["S"], corpus, ["S", "Q", "P"]) == [
        ("Q", 0.9), ("P", 0.9), ("S", 1.0),
    ]


def test_timestamped_doc_is_plain_data():
    td = TimestampedDoc(document="A", timestamp=0.9)
    assert td.document == "A" and td.timestamp == 0.9


def test_random_timelines_match_oracle():
    rng = random.Random(4242)
    for _ in range(30):
        corpus = random_corpus(rng)
        graph, _ = build_trg(corpus)
        store = random_store(rng)
        query = random_query(rng)
        titles = list(corpus.titles)
        rng.shuffle(titles)
        topics = [Topic(t, 1.0 - 0.01 * i) for i, t in enumerate(titles[:3])]
        docs = select_relevant(graph, topics, query, store)
        timeline = extract_timeline(graph, topics, docs)
        edges = {(e.source, e.target) for e in graph.edges}
        expected = timeline_oracle(edges, [t.title for t in topics],
                                   [d.title for d in docs])
        assert [(td.document, td.timestamp) for td in timeline] == expected


def _titles(docs):
    return [d.title for d in docs]


def test_random_selections_match_the_oracle():
    rng = random.Random(5151)
    for _ in range(60):
        corpus = random_corpus(rng, max_docs=12)
        graph, _ = build_trg(corpus)
        store, query = random_store(rng), random_query(rng)
        topics = [Topic(t, 1.0) for t in rng.sample(corpus.titles, 3)]
        assert _titles(select_relevant(graph, topics, query, store)) == \
            _titles(select_relevant_oracle(graph, topics, query, store))


def test_edge_scores_equal_the_oracle_bit_for_bit():
    rng = random.Random(5252)
    scored = 0
    for _ in range(60):
        corpus = random_corpus(rng, max_docs=12)
        graph, _ = build_trg(corpus)
        store, query = random_store(rng), random_query(rng)
        index = TopicIndex(corpus, store)
        match = index.match(query)
        for edge in graph.edges:
            for far in (edge.source, edge.target):
                expected = (edge_query_sim(edge, query, store)
                            + doc_query_sim(corpus.get(far), query, store))
                assert index.edge_score(edge, far, match).hex() == expected.hex()
                scored += 1
    assert scored > 500


def test_hub_selections_match_the_oracle_and_keep_the_earliest_of_a_tie():
    rng = random.Random(6262)
    ties = 0
    for _ in range(80):
        corpus = random_hub_corpus(rng)
        graph, _ = build_trg(corpus)
        store, query = random_store(rng), random_query(rng)
        titles = list(corpus.titles)
        rng.shuffle(titles)
        topics = [Topic("Hub", 1.0)] + [Topic(t, 0.5) for t in titles[:2]]
        assert _titles(select_relevant(graph, topics, query, store)) == \
            _titles(select_relevant_oracle(graph, topics, query, store))
        scores = [edge_query_sim(e, query, store) + doc_query_sim(graph.document(e.source),
                                                                 query, store)
                  for e in graph.inlinks("Hub")]
        ties += bool(scores) and scores.count(max(scores)) > 1
    assert ties > 20  # most draws put the tie rule to work


# a document is (lead, items) and an item (expression, context, cited document numbers)
_EXPRESSIONS = ["a+b", "x^2", "a=b", "a*b-c", "\\frac{a}{b}"]
_TEXTS = st.lists(st.sampled_from(["series", "matrix", "prime", "field", "group"]),
                  max_size=3).map(" ".join)
_SPEC_STORE = random_store(random.Random(31))


@st.composite
def _corpus_specs(draw):
    count = draw(st.integers(2, 6))
    item = st.tuples(st.sampled_from(_EXPRESSIONS), _TEXTS,
                     st.lists(st.integers(0, count - 1), max_size=2))
    return [(draw(_TEXTS), draw(st.lists(item, max_size=3))) for _ in range(count)]


def _spec_corpus(spec) -> Corpus:
    titles = [f"T{i}" for i in range(len(spec))]
    return Corpus({
        title: Document(id=title, title=title, leading_paragraph=lead, sentences=(),
                        math_items=tuple(MathItem(source=e, tree=parse_expression(e),
                                                  context=c, cites=tuple(titles[j] for j in cites))
                                         for e, c, cites in items))
        for title, (lead, items) in zip(titles, spec)})


# T0 is cited from an item whose expression matches the query (the right pick)
# and from one that does not; an item numbering shifted by the document
# without math, or by the item that cites nothing, swaps their Dice
@example(spec=[("series", []), ("matrix", []),
               ("prime", [("x^2", "field", [0])]),
               ("prime", [("a+b", "field", [0])])], expr="a+b", context="field")
@example(spec=[("series", []),
               ("prime", [("a+b", "field", []), ("x^2", "field", [0])]),
               ("prime", [("a+b", "field", [0])])], expr="a+b", context="field")
@given(spec=_corpus_specs(), expr=st.sampled_from(_EXPRESSIONS), context=_TEXTS)
def test_selection_reads_each_edge_items_dice(spec, expr, context):
    corpus = _spec_corpus(spec)
    graph, _ = build_trg(corpus)
    query = Query.parse(expr, context)
    topics = [Topic(t, 1.0) for t in corpus.titles]
    assert _titles(select_relevant(graph, topics, query, _SPEC_STORE)) == \
        _titles(select_relevant_oracle(graph, topics, query, _SPEC_STORE))
