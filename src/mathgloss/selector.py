"""Pick the documents worth describing and lay them on a timeline.

Selection walks the ranked topics in order: the topic's own document, then the
best citing neighbour, then the best cited neighbour, where "best" combines
edge-to-query and document-to-query similarity.  Timeline extraction assigns
integer timestamps to topic seeds and offsets cited / citing neighbours a
tenth below / above their seed.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Document, tokenize
from .mathtree import path_multiset, path_similarity
from .retrieval import Query, Topic, lead_vector
from .textsim import EmbeddingStore, avg_vector, text_cosine
from .trg import Edge, TopicRelationGraph

logger = logging.getLogger(__name__)

OFFSET = 0.1


def edge_query_sim(edge: Edge, query: Query, store: EmbeddingStore) -> float:
    """Context cosine plus expression-tree similarity for one edge."""
    return _edge_sim(edge, avg_vector(query.context_tokens, store),
                     path_multiset(query.expression), store)


def _edge_sim(edge: Edge, query_vec: np.ndarray | None, query_paths: Counter,
              store: EmbeddingStore) -> float:
    """edge_query_sim given the query's context vector and path multiset."""
    edge_vec = avg_vector(tokenize(edge.context), store)
    return (text_cosine(edge_vec, query_vec)
            + path_similarity(path_multiset(edge.expression), query_paths))


def doc_query_sim(doc: Document, query: Query, store: EmbeddingStore) -> float:
    """Cosine between the document's leading paragraph and the query context."""
    return text_cosine(lead_vector(doc, store), avg_vector(query.context_tokens, store))


def _argmax_edge(graph: TopicRelationGraph, edges: list[Edge], query_vec: np.ndarray | None,
                 query_paths: Counter, store: EmbeddingStore, far_end: str) -> Edge | None:
    best: Edge | None = None
    best_score = 0.0
    for edge in edges:  # build order; strict > keeps the earliest of a tie
        far_title = edge.source if far_end == "source" else edge.target
        far_lead = lead_vector(graph.document(far_title), store)
        score = (_edge_sim(edge, query_vec, query_paths, store)
                 + text_cosine(far_lead, query_vec))
        if best is None or score > best_score:
            best, best_score = edge, score
    return best


def select_relevant(graph: TopicRelationGraph, topics: list[Topic], query: Query,
                    store: EmbeddingStore) -> list[Document]:
    """For each topic in rank order: its document, best citing source, best cited target.

    Topics without a vertex are skipped.  Duplicates are kept; the output holds
    at most three documents per topic.
    """
    selected: list[Document] = []
    skipped = 0
    # the query side of every edge's score, computed once
    query_vec = avg_vector(query.context_tokens, store)
    query_paths = path_multiset(query.expression)
    for topic in topics:
        if topic.title not in graph:
            skipped += 1
            continue
        selected.append(graph.document(topic.title))
        citing = _argmax_edge(graph, graph.inlinks(topic.title), query_vec, query_paths,
                              store, far_end="source")
        if citing is not None:
            selected.append(graph.document(citing.source))
        cited = _argmax_edge(graph, graph.outlinks(topic.title), query_vec, query_paths,
                             store, far_end="target")
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
