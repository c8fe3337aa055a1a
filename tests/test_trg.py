"""Citation-graph construction and bookkeeping."""

import random

import pytest

from mathgloss import Corpus, build_trg
from mathgloss.corpus import Document, MathItem, Sentence
from mathgloss.errors import UnknownVertex
from mathgloss.mathtree import parse_expression
from mathgloss.trg import BuildReport
from oracles import citation_tallies, random_corpus


def test_fixture_report(graph_and_report):
    graph, report = graph_and_report
    assert report == BuildReport(edges_kept=12, dangling_dropped=2, self_dropped=1)
    assert len(graph.edges) == 12


def test_report_matches_independent_tally(corpus, graph_and_report):
    _, report = graph_and_report
    kept, dangling, selfc = citation_tallies(corpus)
    assert (report.edges_kept, report.dangling_dropped, report.self_dropped) == \
        (kept, dangling, selfc)


def test_degree_sums_equal_edge_count(graph):
    out_total = sum(len(graph.outlinks(t)) for t in graph.vertices)
    in_total = sum(len(graph.inlinks(t)) for t in graph.vertices)
    assert out_total == in_total == len(graph.edges)


def test_every_document_is_a_vertex(corpus, graph):
    assert graph.vertices == corpus.titles
    for title in corpus.titles:
        assert title in graph
        assert graph.document(title) is corpus.get(title)


def test_edges_keep_build_order(graph):
    pairs = [(e.source, e.target) for e in graph.edges]
    assert pairs == [
        ("Pythagorean theorem", "Right triangle"),
        ("Pythagorean theorem", "Euclidean geometry"),
        ("Right triangle", "Pythagorean theorem"),
        ("Euclidean distance", "Pythagorean theorem"),
        ("Triangle inequality", "Euclidean geometry"),
        ("Fibonacci number", "Golden ratio"),
        ("Golden ratio", "Fibonacci number"),
        ("Cassini's identity", "Fibonacci number"),
        ("Binomial theorem", "Pascal's triangle"),
        ("Pascal's triangle", "Binomial theorem"),
        ("Bayes' theorem", "Conditional probability"),
        ("Conditional probability", "Bayes' theorem"),
    ]


def test_adjacency_of_top_vertex(graph):
    outs = [(e.source, e.target) for e in graph.outlinks("Pythagorean theorem")]
    ins = [(e.source, e.target) for e in graph.inlinks("Pythagorean theorem")]
    assert outs == [("Pythagorean theorem", "Right triangle"),
                    ("Pythagorean theorem", "Euclidean geometry")]
    assert ins == [("Right triangle", "Pythagorean theorem"),
                   ("Euclidean distance", "Pythagorean theorem")]


def test_edges_carry_expression_and_context(corpus, graph):
    edge = graph.outlinks("Pythagorean theorem")[0]
    item = corpus.get("Pythagorean theorem").math_items[0]
    assert edge.expression_source == item.source == "a^2+b^2=c^2"
    assert edge.expression == item.tree
    assert edge.context == item.context


def test_edges_carry_their_item_number(corpus, graph):
    # Right triangle's first item and Fibonacci number's first cite nothing;
    # Euclidean geometry holds no math
    assert [e.item for e in graph.edges] == [0, 1, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13]
    rng = random.Random(23)
    for one in [corpus] + [random_corpus(rng) for _ in range(40)]:
        items = [(doc.title, item) for doc in one for item in doc.math_items]
        for edge in build_trg(one)[0].edges:
            title, item = items[edge.item]
            assert (title, item.source, item.context) == \
                (edge.source, edge.expression_source, edge.context)
            assert edge.target in item.cites


def test_dropped_citations_leave_no_edges(graph):
    assert not graph.has_edge("Triangle inequality", "Triangle inequality")
    assert not graph.has_edge("Cassini's identity", "Lucas number")
    assert graph.has_edge("Cassini's identity", "Fibonacci number")


def test_unknown_vertex_raises(graph):
    with pytest.raises(UnknownVertex):
        graph.outlinks("No such page")
    with pytest.raises(UnknownVertex):
        graph.inlinks("No such page")
    with pytest.raises(UnknownVertex) as excinfo:
        graph.document("No such page")
    assert excinfo.value.title == "No such page"
    assert "No such page" not in graph


def _make_doc(doc_id, title, cite_lists):
    items = tuple(
        MathItem(source="a+b", tree=parse_expression("a+b"),
                 context=f"context {i}", cites=tuple(cites))
        for i, cites in enumerate(cite_lists)
    )
    return Document(id=doc_id, title=title, leading_paragraph="lead",
                    sentences=(Sentence("lead", 0),), math_items=items)


def test_parallel_edges_are_kept():
    corpus = Corpus({
        "A": _make_doc("d1", "A", [["B"], ["B"]]),
        "B": _make_doc("d2", "B", []),
    })
    graph, report = build_trg(corpus)
    assert report == BuildReport(edges_kept=2, dangling_dropped=0, self_dropped=0)
    assert len(graph.inlinks("B")) == 2
    contexts = [e.context for e in graph.inlinks("B")]
    assert contexts == ["context 0", "context 1"]  # item order preserved


def test_repeated_citation_in_one_item_yields_two_edges():
    corpus = Corpus({
        "A": _make_doc("d1", "A", [["B", "B"]]),
        "B": _make_doc("d2", "B", []),
    })
    graph, report = build_trg(corpus)
    assert report.edges_kept == 2
    assert len(graph.outlinks("A")) == 2


def test_random_corpora_tally_exactly():
    rng = random.Random(99)
    for _ in range(25):
        corpus = random_corpus(rng)
        graph, report = build_trg(corpus)
        kept, dangling, selfc = citation_tallies(corpus)
        assert report == BuildReport(kept, dangling, selfc)
        assert len(graph.edges) == kept
        out_total = sum(len(graph.outlinks(t)) for t in graph.vertices)
        in_total = sum(len(graph.inlinks(t)) for t in graph.vertices)
        assert out_total == in_total == kept


def test_random_graphs_answer_from_their_raw_edges():
    rng = random.Random(17)
    edgeless = 0
    for _ in range(25):
        corpus = random_corpus(rng)
        graph, _ = build_trg(corpus)
        assert graph.corpus is corpus
        pairs = {(e.source, e.target) for e in graph.edges}
        titles = corpus.titles + ["Missing Topic"]  # cited by some documents, never a vertex
        for source in titles:
            for target in titles:
                assert graph.has_edge(source, target) == ((source, target) in pairs)
        for title in corpus.titles:
            assert graph.outlinks(title) == [e for e in graph.edges if e.source == title]
            assert graph.inlinks(title) == [e for e in graph.edges if e.target == title]
            edgeless += not any(title in pair for pair in pairs)
        for lookup in (graph.outlinks, graph.inlinks, graph.document):
            with pytest.raises(UnknownVertex):
                lookup("Missing Topic")
    assert edgeless > 0
