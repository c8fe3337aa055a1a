"""Directed citation graph over document titles.

Every document is a vertex.  Each citation inside a math item's context
becomes one directed edge carrying that item's expression and context, so two
items in the same document citing the same target yield two parallel edges.
Citations of unknown titles and self-citations are dropped but counted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, Document
from .errors import UnknownVertex
from .mathtree import MathTree


@dataclass(frozen=True, slots=True)
class Edge:
    source: str
    target: str
    expression: MathTree
    expression_source: str
    context: str


@dataclass(frozen=True)
class BuildReport:
    edges_kept: int
    dangling_dropped: int
    self_dropped: int


class TopicRelationGraph:
    """Vertices are titles; edges keep corpus build order."""

    def __init__(self, corpus: Corpus):
        self._documents = {doc.title: doc for doc in corpus}
        self.edges: list[Edge] = []
        self._outgoing: dict[str, list[Edge]] = {t: [] for t in self._documents}
        self._incoming: dict[str, list[Edge]] = {t: [] for t in self._documents}
        self._pairs: set[tuple[str, str]] = set()

    @property
    def vertices(self) -> list[str]:
        return list(self._documents)

    def __contains__(self, title: str) -> bool:
        return title in self._documents

    def document(self, title: str) -> Document:
        if title not in self._documents:
            raise UnknownVertex(title)
        return self._documents[title]

    def outlinks(self, title: str) -> list[Edge]:
        if title not in self._outgoing:
            raise UnknownVertex(title)
        return list(self._outgoing[title])

    def inlinks(self, title: str) -> list[Edge]:
        if title not in self._incoming:
            raise UnknownVertex(title)
        return list(self._incoming[title])

    def has_edge(self, source: str, target: str) -> bool:
        return (source, target) in self._pairs

    def _add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)
        self._outgoing[edge.source].append(edge)
        self._incoming[edge.target].append(edge)
        self._pairs.add((edge.source, edge.target))


def build_trg(corpus: Corpus) -> tuple[TopicRelationGraph, BuildReport]:
    """Collect citation edges in document, then item, then citation order."""
    graph = TopicRelationGraph(corpus)
    dangling = 0
    selfcites = 0
    for doc in corpus:
        for item in doc.math_items:
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
                    expression=item.tree,
                    expression_source=item.source,
                    context=item.context,
                ))
    report = BuildReport(edges_kept=len(graph.edges),
                         dangling_dropped=dangling,
                         self_dropped=selfcites)
    return graph, report


def export_edges(graph: TopicRelationGraph, path: str | Path) -> None:
    """One JSON line per edge, in build order."""
    with open(path, "w", encoding="utf-8") as fh:
        for edge in graph.edges:
            fh.write(json.dumps({
                "source": edge.source,
                "target": edge.target,
                "expression": edge.expression_source,
                "context": edge.context,
            }, ensure_ascii=False))
            fh.write("\n")
