"""Concept-coverage sentence selection under a word budget and sentence cap.

Concepts are bigrams of consecutive non-stopword tokens.  Selecting a set of
sentences forces exactly the concepts they contain, so the 0-1 program

    maximize   sum_i coefficient_i * c_i
    subject to sum_j length_j * s_j <= budget,   sum_j s_j <= cap,
               s_j <= c_i for i in covers[j],    sum_{j : i in covers[j]} s_j >= c_i

reduces to searching over sentence subsets.  The solver is one exact branch
and bound whose nodes are feasible subsets; a child adds one later sentence, so
subsets are visited in lexicographic order.  A child's subtree is bounded by
the node's objective plus the smaller of two relaxations over the sentences
from the child's index onward that fit the words left: the top (cap - |S|)
marginal gains, and a fractional knapsack of those gains within the words left
(budgeted max coverage, Khuller, Moss & Naor 1999).  Gains count only positive
coefficients, so f(S u A) <= f(S) + sum of gains holds for any coefficients.
Before the search starts, the better of two greedy selections, by gain per
word and by gain, becomes the incumbent, so the search spends its nodes on the
proof rather than on finding the optimum; each greedy pick recomputes only the
gains it touched.  A node budget raises InstanceTooLarge instead of returning
a guess.  Concept relevances are computed in one batch with the bits of one
avg_vector and one cosine per bigram, so they take np.vdot products: a matrix
product would sum in another order, and they enter the objective directly.
extract_concepts adds each to its bigram's weight, once, to give the bigram's
coefficient.

All objective values are evaluated with math.fsum over the covered concepts in
index order.  fsum is correctly rounded, so equal concept sets give bit-equal
objectives no matter how the search reached them.  The bounds are plain float
sums, so a subtree is pruned only when its bound plus a slack far above their
rounding error is strictly below the incumbent; equal optima still reach
_offer, which keeps the lexicographically smallest of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Document
from .errors import EmptyPool, InstanceTooLarge
from .retrieval import Query
from .selector import TimestampedDoc
from .textsim import _TINY, EmbeddingStore, avg_vector, text_cosine

DEFAULT_MAX_NODES = 5_000_000
_BLOCK = 256  # bigrams whose means are built at once: keeps the arrays small


@dataclass(frozen=True)
class PoolSentence:
    document: str
    position: int
    text: str
    tokens: tuple[str, ...]

    @property
    def word_length(self) -> int:
        return len(self.tokens)


@dataclass
class IlpInstance:
    lengths: list[int]
    coefficients: list[float]
    covers: list[tuple[int, ...]]  # covers[j]: sentence j's concept indices, ascending
    budget: int
    sentence_cap: int


@dataclass(frozen=True)
class Selection:
    sentences: tuple[int, ...]
    concepts: tuple[int, ...]
    objective: float


@dataclass(frozen=True)
class DescribedSentence:
    text: str
    document: str
    position: int
    timestamp: float | None


@dataclass(frozen=True)
class Description:
    sentences: tuple[DescribedSentence, ...]
    word_count: int

    @property
    def texts(self) -> list[str]:
        return [s.text for s in self.sentences]


def sentence_bigrams(tokens, stopwords) -> list[tuple[str, str]]:
    """Consecutive pairs of the sentence's non-stopword tokens."""
    content = [t for t in tokens if t not in stopwords]
    return list(zip(content, content[1:]))


def extract_concepts(docs: list[Document], query: Query, store: EmbeddingStore
                     ) -> tuple[list[PoolSentence], dict[tuple[str, str], float]]:
    """Build the sentence pool and map each of its bigrams to its coefficient.

    Pool order follows the given document order, then sentence position; a
    sentence is tokenized here, once, and pooled if it has a token.  Bigrams
    keep the order of their first occurrence.  A coefficient is the bigram's
    weight, which counts every occurrence across the pool, plus its relevance,
    the cosine between the bigram token average and the query context average
    (0 when either is absent), all computed in one batch with the same bits
    (_relevances).
    """
    pool: list[PoolSentence] = []
    for doc in docs:
        for sentence in doc.sentences:
            if tokens := sentence.tokens:
                pool.append(PoolSentence(document=doc.title, position=sentence.position,
                                         text=sentence.text, tokens=tokens))
    weights: dict[tuple[str, str], int] = {}
    for ps in pool:
        for bigram in sentence_bigrams(ps.tokens, store.stopwords):
            weights[bigram] = weights.get(bigram, 0) + 1
    if not weights:
        raise EmptyPool("no sentence yielded a bigram")
    relevances = _relevances(list(weights), store, avg_vector(query.context_tokens, store))
    return pool, {b: w + r for (b, w), r in zip(weights.items(), relevances)}


def _relevances(bigrams: list[tuple[str, str]], store: EmbeddingStore,
                query_vec: np.ndarray | None) -> list[float]:
    """text_cosine(avg_vector(b, store), query_vec) for every bigram, bit for bit.

    A block of means takes avg_vector's elementwise steps in its order: zeros,
    plus the first token in sorted order, plus the second, over the count.
    Adding zeros for a missing token changes no bit.  Each cosine takes
    cosine's np.vdot products; a matrix product would sum in another order.
    A mean that is zero or infinite, or whose squared norms leave the normal
    range, goes through avg_vector and cosine themselves.
    """
    if query_vec is None:
        return [0.0] * len(bigrams)
    qq = float(np.vdot(query_vec, query_vec))
    zero = np.zeros(store.dimension)
    relevances: list[float] = []
    for start in range(0, len(bigrams), _BLOCK):
        block = bigrams[start:start + _BLOCK]
        tokens = [sorted(t for t in b if t not in store.stopwords and t in store.vectors)
                  for b in block]
        means = np.zeros((len(block), store.dimension))
        with np.errstate(over="ignore"):
            for k in (0, 1):
                means += [store.vectors[ts[k]] if len(ts) > k else zero for ts in tokens]
            means /= np.maximum([len(ts) for ts in tokens], 1)[:, None]
        for bigram, mean in zip(block, means):
            mm = float(np.vdot(mean, mean))
            if mm >= _TINY and qq >= _TINY and _TINY <= mm * qq < math.inf:
                relevances.append(float(np.vdot(mean, query_vec)) / math.sqrt(mm * qq))
            else:
                relevances.append(text_cosine(avg_vector(bigram, store), query_vec))
    return relevances


def build_instance(pool: list[PoolSentence], concepts: dict[tuple[str, str], float],
                   budget: int, sentence_cap: int, stopwords) -> IlpInstance:
    index = {b: i for i, b in enumerate(concepts)}
    covers = [tuple(sorted({index[b] for b in sentence_bigrams(ps.tokens, stopwords)
                            if b in index}))
              for ps in pool]
    return IlpInstance(
        lengths=[ps.word_length for ps in pool],
        coefficients=list(concepts.values()),
        covers=covers,
        budget=budget,
        sentence_cap=sentence_cap,
    )


def _validate_instance(instance: IlpInstance) -> None:
    n, m = len(instance.lengths), len(instance.coefficients)
    if len(instance.covers) != n:
        raise ValueError("lengths and covers disagree on length")
    for row in instance.covers:
        if not all(isinstance(i, int) and 0 <= i < m for i in row) or list(row) != sorted(set(row)):
            raise ValueError("covers rows must hold distinct ascending concept indices in range")
    if not all(isinstance(l, int) and l >= 0 for l in instance.lengths):
        raise ValueError("lengths must be non-negative integers")
    if not all(map(math.isfinite, instance.coefficients)):
        raise ValueError("coefficients must be finite")
    for name in ("budget", "sentence_cap"):
        value = getattr(instance, name)
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer")


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _objective(coefficients: list[float], mask: int) -> float:
    return math.fsum(coefficients[i] for i in _iter_bits(mask))


def _knapsack(gains: dict[int, float], lengths: list[int], by_ratio: list[int],
              first: int, room: int) -> float:
    """Fractional knapsack of the gains of sentences first.. within room words."""
    total = 0.0
    for k in by_ratio:
        if k < first:
            continue
        if lengths[k] > room:
            return total + gains[k] * room / lengths[k]
        total += gains[k]
        room -= lengths[k]
    return total


class _Search:
    def __init__(self, instance: IlpInstance, max_nodes: int):
        self.lengths = instance.lengths
        self.n = len(self.lengths)
        self.budget = instance.budget
        # a cap above the pool size selects as the pool size does; clamped, it
        # also stays within what islice accepts
        self.cap = min(instance.sentence_cap, self.n)
        self.coefficients = instance.coefficients
        self.positive = [max(c, 0.0) for c in self.coefficients]
        self.masks = [sum(1 << i for i in row) for row in instance.covers]
        # far above the rounding error of any plain float sum the bound makes
        self.slack = 1e-9 * math.fsum(abs(c) for c in self.coefficients)
        self.max_nodes = max_nodes
        self.nodes = 0
        self.best_objective = -math.inf
        self.best_chosen: tuple[int, ...] = ()
        self.best_mask = 0

    def _offer(self, chosen: tuple[int, ...], mask: int) -> float:
        """Keep the subset if it beats the incumbent, or equals it and is
        lexicographically smaller."""
        objective = _objective(self.coefficients, mask)
        if objective > self.best_objective or (
                objective == self.best_objective and chosen < self.best_chosen):
            self.best_objective = objective
            self.best_chosen = chosen
            self.best_mask = mask
        return objective

    def _gain(self, j: int, covered: int) -> float:
        """Positive part of sentence j's marginal gain over the covered concepts."""
        return sum(self.positive[i] for i in _iter_bits(self.masks[j] & ~covered))

    def _visit(self, chosen: tuple[int, ...], used: int, covered: int,
               fresh: int, inherited: dict[int, float]):
        """Offer one feasible subset, then yield each child worth visiting.
        Only sentences touching fresh, the concepts this node newly covered,
        get their gains recomputed; the others inherit the parent's."""
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise InstanceTooLarge(self.nodes)
        objective = self._offer(chosen, covered)
        slots = self.cap - len(chosen)
        if not slots:
            return
        lengths, masks = self.lengths, self.masks
        room = self.budget - used
        fits = [j for j in range(chosen[-1] + 1 if chosen else 0, self.n)
                if lengths[j] <= room]
        gains = {j: self._gain(j, covered) if masks[j] & fresh else inherited[j]
                 for j in fits}
        by_gain = sorted(fits, key=gains.__getitem__, reverse=True)
        by_ratio = sorted(fits, reverse=True,
                          key=lambda j: gains[j] / lengths[j] if lengths[j] else math.inf)
        for j in fits:
            top = sum(itertools.islice((gains[k] for k in by_gain if k >= j), slots))
            relaxed = min(top, _knapsack(gains, lengths, by_ratio, j, room))
            if objective + relaxed + self.slack < self.best_objective:
                return  # later children see fewer sentences, so bound no higher
            yield (chosen + (j,), used + lengths[j], covered | masks[j],
                   masks[j] & ~covered, gains)

    def greedy(self, per_word: bool) -> tuple[tuple[int, ...], int]:
        """Add the sentence of largest gain, or gain per word, while one with a
        positive gain fits the cap and the budget; ties go to the lowest index.
        As in _visit, a pick recomputes only the gains of sentences touching
        the concepts it newly covered; a chosen sentence's gain becomes 0."""
        lengths, masks = self.lengths, self.masks
        gains = [self._gain(j, 0) for j in range(self.n)]
        chosen: list[int] = []
        used = covered = 0
        while len(chosen) < self.cap:
            best, best_key = None, 0.0
            for j, gain in enumerate(gains):
                if gain <= 0.0 or used + lengths[j] > self.budget:
                    continue
                key = (gain / lengths[j] if lengths[j] else math.inf) if per_word else gain
                if best is None or key > best_key:
                    best, best_key = j, key
            if best is None:
                break
            chosen.append(best)
            used += lengths[best]
            fresh = masks[best] & ~covered
            covered |= masks[best]
            for j in range(self.n):
                if masks[j] & fresh:
                    gains[j] = self._gain(j, covered)
        return tuple(sorted(chosen)), covered

    def run(self) -> None:
        for per_word in (True, False):
            self._offer(*self.greedy(per_word))
        # one generator per level on an explicit stack: depth costs no recursion;
        # fresh = -1 recomputes every gain (one without concepts inherits 0)
        stack = [self._visit((), 0, 0, -1, dict.fromkeys(range(self.n), 0.0))]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(self._visit(*child))


def solve_ilp(instance: IlpInstance, max_nodes: int = DEFAULT_MAX_NODES) -> Selection:
    """Return the optimal selection; among equal optima the lexicographically
    smallest sentence-index tuple wins.  Raises InstanceTooLarge when the node
    budget runs out before optimality is proven."""
    _validate_instance(instance)
    search = _Search(instance, max_nodes)
    search.run()
    selection = Selection(
        sentences=search.best_chosen,
        concepts=tuple(_iter_bits(search.best_mask)),
        objective=search.best_objective,
    )
    verify_selection(instance, selection)
    return selection


def verify_selection(instance: IlpInstance, selection: Selection) -> None:
    """Recheck every constraint from the raw instance; raises ValueError.

    This recomputes coverage and sums from instance data alone, so a solver
    bookkeeping bug cannot hide behind its own accounting.
    """
    n, m = len(instance.lengths), len(instance.coefficients)
    chosen = list(selection.sentences)
    if chosen != sorted(set(chosen)) or any(j < 0 or j >= n for j in chosen):
        raise ValueError("sentence indices must be distinct, sorted, in range")
    picked = list(selection.concepts)
    if picked != sorted(set(picked)) or any(i < 0 or i >= m for i in picked):
        raise ValueError("concept indices must be distinct, sorted, in range")
    if sum(instance.lengths[j] for j in chosen) > instance.budget:
        raise ValueError("word budget exceeded")
    if len(chosen) > instance.sentence_cap:
        raise ValueError("sentence cap exceeded")
    covered = set().union(*(instance.covers[j] for j in chosen))
    mismatched = covered.symmetric_difference(picked)
    if mismatched:
        i = min(mismatched)
        state = "covered but not selected" if i in covered else "selected but uncovered"
        raise ValueError(f"concept {i} is {state}")
    expected = math.fsum(instance.coefficients[i] for i in picked)
    if selection.objective != expected:
        raise ValueError("objective does not match the selected concepts")


def order_sentences(selection: Selection, pool: list[PoolSentence],
                    timeline: list[TimestampedDoc]) -> Description:
    """Arrange the chosen sentences for reading.

    Documents follow the timeline order (it already encodes timestamp order,
    assignment-order tie-breaks, and trailing never-timestamped documents),
    and sentences keep their positions inside each document.
    """
    rank = {td.document: i for i, td in enumerate(timeline)}
    stamps = {td.document: td.timestamp for td in timeline}
    chosen = sorted((pool[j] for j in selection.sentences),
                    key=lambda ps: (rank[ps.document], ps.position))
    described = tuple(
        DescribedSentence(text=ps.text, document=ps.document, position=ps.position,
                          timestamp=stamps.get(ps.document))
        for ps in chosen
    )
    return Description(sentences=described,
                       word_count=sum(ps.word_length for ps in chosen))

