"""Pick the documents worth describing and lay them on a timeline.

Selection walks the ranked topics in order: the topic's own document, then the
best citing neighbour, then the best cited neighbour, where "best" is the
highest retrieval.TopicIndex.edge_score: edge-to-query plus far-document-to-
query similarity, read from the same index and query match as the ranking.
Timeline extraction assigns integer timestamps to topic seeds and offsets
cited / citing neighbours a tenth below / above their seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .corpus import Document
from .retrieval import Match, Query, Topic, TopicIndex
from .textsim import EmbeddingStore
from .trg import TopicRelationGraph

logger = logging.getLogger(__name__)

OFFSET = 0.1


def select_relevant(graph: TopicRelationGraph, topics: list[Topic], query: Query,
                    store: EmbeddingStore) -> list[Document]:
    """select_documents with a TopicIndex built for this one call."""
    index = TopicIndex(graph.corpus, store)
    return select_documents(index, graph, topics, index.match(query))


def select_documents(index: TopicIndex, graph: TopicRelationGraph, topics: list[Topic],
                     match: Match) -> list[Document]:
    """For each topic in rank order: its document, best citing source, best cited target.

    index and graph are over the same corpus, and match is index.match(query).
    Topics without a vertex are skipped.  Duplicates are kept; the output holds
    at most three documents per topic.
    """
    selected: list[Document] = []
    skipped = 0
    for topic in topics:
        if topic.title not in graph:
            skipped += 1
            continue
        selected.append(graph.document(topic.title))
        # max keeps the first of equal scores: the edge built first wins a tie
        citing = max(graph.inlinks(topic.title), default=None,
                     key=lambda edge: index.edge_score(edge, edge.source, match))
        if citing is not None:
            selected.append(graph.document(citing.source))
        cited = max(graph.outlinks(topic.title), default=None,
                    key=lambda edge: index.edge_score(edge, edge.target, match))
        if cited is not None:
            selected.append(graph.document(cited.target))
    if skipped:
        logger.warning("%d topic(s) missing from the graph were skipped", skipped)
    return selected


@dataclass(frozen=True)
class TimestampedDoc:
    document: str
    timestamp: float | None  # None marks a document that never got a timestamp


def extract_timeline(graph: TopicRelationGraph, topics: list[Topic],
                     docs: list[Document]) -> list[TimestampedDoc]:
    """Order the selected documents.

    Duplicates collapse to their first occurrence.  The i-th topic (1-based)
    still present in the pool gets timestamp i; remaining pool documents it
    cites get i - 0.1 and ones citing it get i + 0.1, scanned in pool order.
    The result sorts by timestamp with assignment order breaking ties; never-
    assigned documents follow at the end in pool order.
    """
    pool: list[str] = []
    seen: set[str] = set()
    for doc in docs:
        if doc.title not in seen:
            seen.add(doc.title)
            pool.append(doc.title)
    assigned: list[tuple[str, float]] = []

    def take(title: str, timestamp: float) -> None:
        assigned.append((title, timestamp))
        pool.remove(title)

    for index, topic in enumerate(topics, start=1):
        if topic.title not in pool:
            continue
        seed = topic.title
        take(seed, float(index))
        for title in list(pool):
            if graph.has_edge(seed, title):
                take(title, index - OFFSET)
        for title in list(pool):
            if graph.has_edge(title, seed):
                take(title, index + OFFSET)

    ordered = sorted(assigned, key=lambda pair: pair[1])  # stable: ties keep assignment order
    timeline = [TimestampedDoc(document=t, timestamp=ts) for t, ts in ordered]
    timeline.extend(TimestampedDoc(document=t, timestamp=None) for t in pool)
    return timeline
