"""Directed citation graph over document titles.

Every document is a vertex.  Each citation inside a math item's context
becomes one directed edge carrying that item's number, expression and
context, so two items in the same document citing the same target yield two
parallel edges.  Items are numbered over the whole corpus in document order,
as retrieval.TopicIndex numbers them.  Citations of unknown titles and
self-citations are dropped but counted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, Document, nogc
from .errors import UnknownVertex
from .mathtree import MathTree


@dataclass(frozen=True, slots=True)
class Edge:
    source: str
    target: str
    item: int
    expression: MathTree
    expression_source: str
    context: str


@dataclass(frozen=True)
class BuildReport:
    edges_kept: int
    dangling_dropped: int
    self_dropped: int


class TopicRelationGraph:
    """A view over its corpus, whose titles are the vertices.  The graph holds
    only the edges, in build order, and adjacency lists for vertices with edges."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.edges: list[Edge] = []
        self._outgoing: dict[str, list[Edge]] = {}
        self._incoming: dict[str, list[Edge]] = {}

    @property
    def vertices(self) -> list[str]:
        return self.corpus.titles

    def __contains__(self, title: str) -> bool:
        return title in self.corpus

    def document(self, title: str) -> Document:
        if title not in self.corpus:
            raise UnknownVertex(title)
        return self.corpus.get(title)

    def outlinks(self, title: str) -> list[Edge]:
        if title not in self.corpus:
            raise UnknownVertex(title)
        return list(self._outgoing.get(title, ()))

    def inlinks(self, title: str) -> list[Edge]:
        if title not in self.corpus:
            raise UnknownVertex(title)
        return list(self._incoming.get(title, ()))

    def has_edge(self, source: str, target: str) -> bool:
        # out-degree stays small; in-degree passes a thousand on hub topics
        return any(edge.target == target for edge in self._outgoing.get(source, ()))

    def _add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)
        self._outgoing.setdefault(edge.source, []).append(edge)
        self._incoming.setdefault(edge.target, []).append(edge)


@nogc
def build_trg(corpus: Corpus) -> tuple[TopicRelationGraph, BuildReport]:
    """Collect citation edges in document, then item, then citation order."""
    graph = TopicRelationGraph(corpus)
    dangling = 0
    selfcites = 0
    items = ((doc, item) for doc in corpus for item in doc.math_items)
    for number, (doc, item) in enumerate(items):
        for cited in item.cites:
            if cited == doc.title:
                selfcites += 1
                continue
            if cited not in corpus:
                dangling += 1
                continue
            graph._add_edge(Edge(
                source=doc.title,
                target=cited,
                item=number,
                expression=item.tree,
                expression_source=item.source,
                context=item.context,
            ))
    report = BuildReport(edges_kept=len(graph.edges),
                         dangling_dropped=dangling,
                         self_dropped=selfcites)
    return graph, report
