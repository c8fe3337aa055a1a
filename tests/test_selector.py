"""Relevant-document selection and timeline extraction."""

import logging
import math
import random

from mathgloss import Corpus, Query, build_trg, extract_timeline, select_relevant
from mathgloss.corpus import Document, MathItem, Sentence
from mathgloss.mathtree import parse_expression
from mathgloss.retrieval import Topic
from mathgloss.selector import TimestampedDoc, doc_query_sim, edge_query_sim
from mathgloss.trg import Edge
from oracles import random_corpus, random_query, random_store, timeline_oracle

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
# similarity terms

def test_edge_query_sim_pins_both_terms(golden_query, store):
    edge = Edge(source="X", target="Y",
                expression=parse_expression("a^2+b^2=c^2"),
                expression_source="a^2+b^2=c^2",
                context="right triangle")
    # context average is the pure first-axis vector, expression matches fully
    assert edge_query_sim(edge, golden_query, store) == 3 / math.sqrt(11) + 1.0


def test_edge_query_sim_absent_context_counts_zero(golden_query, store):
    edge = Edge(source="X", target="Y", expression=parse_expression("z"),
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
                    sentences=(Sentence.make(lead, 0),), math_items=items)


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
                      sentences=(Sentence.make("s lead", 0),),
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


def _argmax_by_public_scores(graph, edges, query, store, far_end):
    best, best_score = None, 0.0
    for edge in edges:
        far = graph.document(edge.source if far_end == "source" else edge.target)
        score = edge_query_sim(edge, query, store) + doc_query_sim(far, query, store)
        if best is None or score > best_score:
            best, best_score = edge, score
    return best


def test_random_selections_match_argmax_over_public_scores():
    # select_relevant computes the query side once per call; its picks must be
    # the ones edge_query_sim + doc_query_sim give edge by edge
    rng = random.Random(5151)
    for _ in range(60):
        corpus = random_corpus(rng, max_docs=12)
        graph, _ = build_trg(corpus)
        store, query = random_store(rng), random_query(rng)
        topics = [Topic(t, 1.0) for t in rng.sample(corpus.titles, 3)]
        expected = []
        for topic in topics:
            expected.append(topic.title)
            citing = _argmax_by_public_scores(graph, graph.inlinks(topic.title), query,
                                              store, "source")
            if citing is not None:
                expected.append(citing.source)
            cited = _argmax_by_public_scores(graph, graph.outlinks(topic.title), query,
                                             store, "target")
            if cited is not None:
                expected.append(cited.target)
        docs = select_relevant(graph, topics, query, store)
        assert [d.title for d in docs] == expected
