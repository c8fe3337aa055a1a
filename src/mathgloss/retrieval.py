"""Rank corpus documents against a math query: expression-tree overlap plus
cosine between the query context and each document's leading paragraph.

The corpus side of the ranking does not depend on the query, so TopicIndex
computes it once: an inverted index from depth-3 label paths to the math items
holding them, as in Tangent (Zanibbi et al. 2016), and one lead-paragraph
vector per document.  A query then touches only the postings of its own paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document, tokenize
from .errors import EmptyCorpus
from .mathtree import MathTree, parse_expression, path_multiset
from .textsim import EmbeddingStore, avg_vector, text_cosine


@dataclass(frozen=True)
class Query:
    source: str
    expression: MathTree
    context: str
    context_tokens: tuple[str, ...]

    @classmethod
    def parse(cls, expression_source: str, context: str) -> "Query":
        return cls(
            source=expression_source,
            expression=parse_expression(expression_source),
            context=context,
            context_tokens=tuple(tokenize(context)),
        )


@dataclass(frozen=True)
class Topic:
    title: str
    score: float


def lead_vector(doc: Document, store: EmbeddingStore) -> np.ndarray | None:
    """The averaged vector of the document's leading paragraph."""
    return avg_vector(tokenize(doc.leading_paragraph), store)


class TopicIndex:
    """The query-independent half of rank_topics for one corpus and store.

    postings maps each label path to a flat list [item, count, item, count,
    ...] over the math items holding it; items are numbered in corpus order,
    sizes holds each item's multiset size and owners its document's number.
    """

    def __init__(self, corpus: Corpus, store: EmbeddingStore):
        self.store = store
        self.titles = corpus.titles
        self.lead_vectors = [lead_vector(doc, store) for doc in corpus]
        self.postings: dict[tuple[str, ...], list[int]] = {}
        self.sizes: list[int] = []
        self.owners: list[int] = []
        for number, doc in enumerate(corpus):
            for item in doc.math_items:
                paths = path_multiset(item.tree)
                for path, count in paths.items():
                    self.postings.setdefault(path, []).extend((len(self.sizes), count))
                self.sizes.append(paths.total())
                self.owners.append(number)

    def rank(self, query: Query, k: int) -> list[Topic]:
        """rank_topics over the indexed corpus."""
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if not self.titles:
            raise EmptyCorpus("cannot rank topics over an empty corpus")
        query_paths = path_multiset(query.expression)
        shared: dict[int, int] = {}
        for path, query_count in query_paths.items():
            posting = iter(self.postings.get(path, ()))
            for item, count in zip(posting, posting):
                shared[item] = shared.get(item, 0) + min(query_count, count)
        # an item sharing no path has Dice 0.0, the floor of every tree term
        tree_terms = [0.0] * len(self.titles)
        query_size = query_paths.total()
        for item, common in shared.items():
            dice = 2.0 * common / (query_size + self.sizes[item])
            owner = self.owners[item]
            if dice > tree_terms[owner]:
                tree_terms[owner] = dice
        query_vec = avg_vector(query.context_tokens, self.store)
        scores = [tree_term + text_cosine(query_vec, lead_vec)
                  for tree_term, lead_vec in zip(tree_terms, self.lead_vectors)]
        titles = self.titles
        order = sorted(range(len(titles)), key=lambda d: (-scores[d], titles[d]))
        return [Topic(title=titles[d], score=scores[d]) for d in order[:k]]


def rank_topics(query: Query, corpus: Corpus, store: EmbeddingStore, k: int = 3) -> list[Topic]:
    """Top-k documents by expression similarity plus context cosine.

    The expression term is the best Dice match over a document's math items (0
    when it has none); ties break on ascending title.
    """
    return TopicIndex(corpus, store).rank(query, k)
