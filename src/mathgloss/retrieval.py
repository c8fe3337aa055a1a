"""Score corpus documents and citation edges against a math query: expression-
tree overlap plus cosine between the query context and leading paragraphs.

The corpus side of every score does not depend on the query, so TopicIndex
computes it once: an inverted index from depth-3 label paths to the math items
holding them, as in Tangent (Zanibbi et al. 2016), and one matrix of
lead-paragraph vectors with their squared norms.  A query then touches only
the postings of its own paths, once: the walk gives the Dice overlap of every
math item, and both the ranking's tree terms and selection's edge scores read
it (an edge carries the number of the item it came from).

Ranking is filter and refine, as in the threshold algorithm (Fagin, Lotem &
Naor 2003).  The filter scores every document at once, with one
matrix-vector product over the precomputed norms; its cosines sum in another
order than cosine does, so they may differ from the exact ones in the last
bits.  Every document whose filter score lies within MARGIN of the k-th best
one, and every document whose norms leave the range where the filter's
arithmetic holds, is rescored exactly, and only those are sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, tokenize
from .errors import EmptyCorpus
from .mathtree import MathTree, parse_expression, path_multiset
from .textsim import EmbeddingStore, approximate_cosines, avg_vector, text_cosine
from .trg import Edge


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


@dataclass(frozen=True)
class Match:
    """What every score needs of one query: the Dice overlap of each math item
    sharing a label path with it (an absent item scores 0.0) and the averaged
    context vector."""
    dice: dict[int, float]
    vector: np.ndarray | None


# A score is tree term + cosine, and the filter computes the same cosine as
# cosine does with its three dot products summed in another order.  A d-term
# dot product is off by at most about d*u*|a||b| (u = 2**-53, Cauchy-Schwarz),
# so while both squared norms and their product are normal floats each
# filter score is within e = (d + 3)*u of the exact score (every exact score
# is finite: avg_vector never overflows and |cosine| <= 1): 3e-15 at d = 24.
# If s is the k-th best filter score, k documents score at least s - e
# exactly, so a document whose filter score is below s - 2e is beaten by k
# documents and is not among the k best, ties included.  MARGIN stands for 2e
# with room to spare: it holds up to about 4 million dimensions.
MARGIN = 1e-9


class TopicIndex:
    """The query-independent half of ranking and edge scoring for one corpus
    and store.

    postings maps each label path to a flat list [item, count, item, count,
    ...] over the math items holding it; items are numbered in corpus order,
    sizes holds each item's multiset size and owners its document's number.
    numbers maps each title to its document's number.  Row d of leads is
    document d's lead-paragraph vector, all zeros where has_lead[d] is false
    because the paragraph had no usable token, and lead_norms[d] its squared
    norm.
    """

    def __init__(self, corpus: Corpus, store: EmbeddingStore):
        self.store = store
        self.titles = corpus.titles
        self.numbers = {title: number for number, title in enumerate(self.titles)}
        self.leads = np.zeros((len(self.titles), store.dimension))
        self.has_lead = np.zeros(len(self.titles), dtype=bool)
        self.postings: dict[tuple[str, ...], list[int]] = {}
        self.sizes: list[int] = []
        self.owners: list[int] = []
        for number, doc in enumerate(corpus):
            lead = avg_vector(tokenize(doc.leading_paragraph), store)
            if lead is not None:
                self.leads[number] = lead
                self.has_lead[number] = True
            for item in doc.math_items:
                paths = path_multiset(item.tree)
                for path, count in paths.items():
                    self.postings.setdefault(path, []).extend((len(self.sizes), count))
                self.sizes.append(paths.total())
                self.owners.append(number)
        with np.errstate(over="ignore"):
            self.lead_norms = np.einsum("ij,ij->i", self.leads, self.leads)

    def match(self, query: Query) -> Match:
        """One walk over the query's postings, and the query's context vector."""
        query_paths = path_multiset(query.expression)
        shared: dict[int, int] = {}
        for path, query_count in query_paths.items():
            posting = iter(self.postings.get(path, ()))
            for item, count in zip(posting, posting):
                shared[item] = shared.get(item, 0) + min(query_count, count)
        query_size = query_paths.total()
        dice = {item: 2.0 * common / (query_size + self.sizes[item])
                for item, common in shared.items()}
        return Match(dice, avg_vector(query.context_tokens, self.store))

    def rank(self, match: Match, k: int) -> list[Topic]:
        """rank_topics over the indexed corpus, for the query match came from."""
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if not self.titles:
            raise EmptyCorpus("cannot rank topics over an empty corpus")
        tree_terms = self.tree_terms(match)
        scores: dict[int, float] = {}
        for d in self.candidates(tree_terms, match.vector, k).tolist():
            lead = self.leads[d] if self.has_lead[d] else None
            scores[d] = tree_terms[d] + text_cosine(match.vector, lead)
        titles = self.titles
        order = sorted(scores, key=lambda d: (-scores[d], titles[d]))
        return [Topic(title=titles[d], score=scores[d]) for d in order[:k]]

    def tree_terms(self, match: Match) -> list[float]:
        """Each document's best Dice overlap between the query and its math items."""
        # an item sharing no path has Dice 0.0, the floor of every tree term
        tree_terms = [0.0] * len(self.titles)
        for item, dice in match.dice.items():
            owner = self.owners[item]
            if dice > tree_terms[owner]:
                tree_terms[owner] = dice
        return tree_terms

    def edge_score(self, edge: Edge, far_title: str, match: Match) -> float:
        """Selection's score of a citation edge: its context's cosine plus its
        item's Dice, plus the lead cosine of the document at its far end."""
        context = avg_vector(tokenize(edge.context), self.store)
        far = self.numbers[far_title]
        lead = self.leads[far] if self.has_lead[far] else None
        return (text_cosine(context, match.vector) + match.dice.get(edge.item, 0.0)
                + text_cosine(lead, match.vector))

    def candidates(self, tree_terms: list[float], query_vec: np.ndarray | None,
                   k: int) -> np.ndarray:
        """The numbers of the documents that can be among the k best, ascending.

        These are every document whose filter score is at least the k-th best
        one minus MARGIN, and every document with a lead vector whose norms
        leave the normal range, where cosine rescales and the filter's error
        bound does not hold.
        """
        scores = np.array(tree_terms)
        unsure = np.zeros(len(scores), dtype=bool)
        if query_vec is not None:
            cosines, holds = approximate_cosines(self.leads, self.lead_norms, query_vec)
            # rows without a lead vector have norm 0, so their cosine term stays 0.0
            scores += np.where(holds, cosines, 0.0)
            unsure = self.has_lead & ~holds
            scores[unsure] = -math.inf  # rescored anyway; kept out of the threshold
        kth = max(len(scores) - k, 0)
        threshold = np.partition(scores, kth)[kth] - MARGIN
        return np.flatnonzero((scores >= threshold) | unsure)


def rank_topics(query: Query, corpus: Corpus, store: EmbeddingStore, k: int = 3) -> list[Topic]:
    """Top-k documents by expression similarity plus context cosine.

    The expression term is the best Dice match over a document's math items (0
    when it has none); ties break on ascending title.
    """
    index = TopicIndex(corpus, store)
    return index.rank(index.match(query), k)
