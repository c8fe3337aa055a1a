"""Independent reference implementations used to cross-check the package.

Everything here is written from the contracts alone: plain enumeration and
direct recomputation, no reuse of the solver, selector, or graph internals.
A bug in the package cannot hide behind its own bookkeeping when the checker
on this side recomputes the answer from raw data.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from mathgloss import Corpus, Document, Query, Topic
from mathgloss.corpus import Sentence, tokenize
from mathgloss.corpus import MathItem
from mathgloss.errors import EmptyCorpus, EmptyPool, ParseError
from mathgloss.mathtree import (IMPLICIT_MUL, PATH_DEPTH, MathNode, MathTree, parse_expression,
                               tree_similarity)
from mathgloss.summarizer import IlpInstance, PoolSentence, sentence_bigrams
from mathgloss.textsim import EmbeddingStore, avg_vector, cosine, text_cosine
from mathgloss.trg import Edge, TopicRelationGraph


# --------------------------------------------------------------------------
# expression parser oracle: one method per binding level, no end-of-input
# token, so every look-ahead checks for the end of the token list

_RELATIONS = {"=", "<", ">", "|", "le", "ge", "ne"}
_ADDITIVE = {"+", "-"}
_MULTIPLICATIVE = {"*", "/"}
_POSTFIX = {"^", "_"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # SYMBOL NUMBER COMMAND OP LPAREN RPAREN LBRACE RBRACE
    value: str
    position: int


def _lex(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha():
            tokens.append(_Token("SYMBOL", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(_Token("NUMBER", source[i:j], i))
            i = j
            continue
        if ch == "\\":
            j = i + 1
            while j < n and source[j].isalpha():
                j += 1
            name = source[i + 1 : j]
            if not name:
                raise ParseError(i, "backslash without a command name")
            if name in ("le", "ge", "ne"):
                tokens.append(_Token("OP", name, i))
            else:
                tokens.append(_Token("COMMAND", name, i))
            i = j
            continue
        if ch in "+-*/^_=<>|":
            tokens.append(_Token("OP", ch, i))
        elif ch == "(":
            tokens.append(_Token("LPAREN", ch, i))
        elif ch == ")":
            tokens.append(_Token("RPAREN", ch, i))
        elif ch == "{":
            tokens.append(_Token("LBRACE", ch, i))
        elif ch == "}":
            tokens.append(_Token("RBRACE", ch, i))
        else:
            raise ParseError(i, f"unexpected character {ch!r}")
        i += 1
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.pos = 0

    def peek(self) -> _Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(len(self.source), "unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            at = tok.position if tok else len(self.source)
            raise ParseError(at, f"expected {what}")
        return self.take()

    def parse(self) -> MathNode:
        node = self.relation()
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok.position, f"unexpected token {tok.value!r}")
        return node

    def relation(self) -> MathNode:
        left = self.additive()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "OP" or tok.value not in _RELATIONS:
                return left
            op = self.take()
            right = self.additive()
            left = MathNode(op.value, (left, right))

    def additive(self) -> MathNode:
        tok = self.peek()
        if tok is not None and tok.kind == "OP" and tok.value in _ADDITIVE:
            # prefix sign: binds looser than any product, e.g. -ab is -(a.b)
            op = self.take()
            left = MathNode(op.value, (self.multiplicative(),))
        else:
            left = self.multiplicative()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "OP" or tok.value not in _ADDITIVE:
                return left
            op = self.take()
            right = self.multiplicative()
            left = MathNode(op.value, (left, right))

    def multiplicative(self) -> MathNode:
        left = self.implicit()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "OP" or tok.value not in _MULTIPLICATIVE:
                return left
            op = self.take()
            right = self.implicit()
            left = MathNode(op.value, (left, right))

    def implicit(self) -> MathNode:
        left = self.postfix()
        while self._starts_atom(self.peek()):
            right = self.postfix()
            left = MathNode(IMPLICIT_MUL, (left, right))
        return left

    def postfix(self) -> MathNode:
        base = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "OP" or tok.value not in _POSTFIX:
                return base
            op = self.take()
            script = self.atom()
            base = MathNode(op.value, (base, script))

    @staticmethod
    def _starts_atom(tok: _Token | None) -> bool:
        return tok is not None and tok.kind in ("SYMBOL", "NUMBER", "COMMAND", "LPAREN", "LBRACE")

    def atom(self) -> MathNode:
        tok = self.peek()
        if tok is None:
            raise ParseError(len(self.source), "missing operand")
        if tok.kind in ("SYMBOL", "NUMBER"):
            self.take()
            return MathNode(tok.value)
        if tok.kind == "COMMAND":
            self.take()
            if tok.value == "frac":
                self.expect("LBRACE", "'{' after \\frac")
                numerator = self.relation()
                self.expect("RBRACE", "'}' closing the numerator")
                self.expect("LBRACE", "'{' before the denominator")
                denominator = self.relation()
                self.expect("RBRACE", "'}' closing the denominator")
                return MathNode("frac", (numerator, denominator))
            # any other command is an opaque leaf symbol
            return MathNode(tok.value)
        if tok.kind == "LPAREN":
            self.take()
            inner = self.relation()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "LBRACE":
            self.take()
            inner = self.relation()
            self.expect("RBRACE", "'}'")
            return inner
        raise ParseError(tok.position, f"missing operand before {tok.value!r}")


def parse_expression_oracle(source: str) -> MathTree:
    """parse_expression as a recursive-descent parser with one method per level."""
    if not source.strip():
        raise ParseError(0, "empty expression")
    parser = _Parser(source)
    try:
        return MathTree(parser.parse())
    except RecursionError:
        tok = parser.peek()
        position = tok.position if tok is not None else len(source)
        raise ParseError(position, "expression nested too deeply") from None


# --------------------------------------------------------------------------
# coverage-program oracle

def brute_force_solve(instance: IlpInstance) -> tuple[float, tuple[int, ...]]:
    """Optimal (objective, sentence indices) by enumerating every subset.

    Subsets are scored with math.fsum over the covered concepts in index
    order; at equal objectives the lexicographically smallest index tuple
    wins, regardless of discovery order.
    """
    coeff = instance.coefficients
    n, m = len(instance.lengths), len(coeff)
    masks = []
    for row in instance.covers:
        mask = 0
        for i in row:
            mask |= 1 << i
        masks.append(mask)
    best_obj = -math.inf
    best_combo: tuple[int, ...] | None = None
    for r in range(0, min(instance.sentence_cap, n) + 1):
        for combo in itertools.combinations(range(n), r):
            if sum(instance.lengths[j] for j in combo) > instance.budget:
                continue
            covered = 0
            for j in combo:
                covered |= masks[j]
            obj = math.fsum(coeff[i] for i in range(m) if covered >> i & 1)
            if obj > best_obj or (obj == best_obj and combo < best_combo):
                best_obj, best_combo = obj, combo
    return best_obj, best_combo


def check_selection(instance: IlpInstance, selection) -> list[str]:
    """Re-verify a finished Selection from the instance alone."""
    problems = []
    n = len(instance.lengths)
    chosen = list(selection.sentences)
    if chosen != sorted(set(chosen)) or any(j < 0 or j >= n for j in chosen):
        problems.append("sentence indices not sorted, unique, and in range")
        return problems
    if sum(instance.lengths[j] for j in chosen) > instance.budget:
        problems.append("word budget exceeded")
    if len(chosen) > instance.sentence_cap:
        problems.append("sentence cap exceeded")
    covered = {i for j in chosen for i in instance.covers[j]}
    if covered != set(selection.concepts):
        problems.append("concept choices disagree with sentence coverage")
    expected = math.fsum(instance.coefficients[i] for i in sorted(covered))
    if selection.objective != expected:
        problems.append("objective does not equal the recomputed coefficient sum")
    return problems


def random_instance(rng: random.Random, max_sentences: int = 12,
                    max_concepts: int = 20) -> IlpInstance:
    """Random coverage instance mixing tight and slack budgets."""
    n = rng.randint(1, max_sentences)
    m = rng.randint(1, max_concepts)
    lengths = [rng.randint(1, 12) for _ in range(n)]
    covers = [{i for i in range(m) if rng.random() < 0.35} for _ in range(n)]
    for i in range(m):  # every concept must occur somewhere in the pool
        if not any(i in row for row in covers):
            covers[rng.randrange(n)].add(i)
    # a weight, then a relevance, per concept
    coefficients = [rng.randint(1, 5) + rng.uniform(-1.0, 1.0) for _ in range(m)]
    total = sum(lengths)
    if rng.random() < 0.5:
        budget = rng.randint(0, max(total // 2, 1))  # usually tight
    else:
        budget = rng.randint(0, total + 5)  # sometimes slack
    return IlpInstance(lengths=lengths, coefficients=coefficients,
                       covers=[tuple(sorted(row)) for row in covers],
                       budget=budget, sentence_cap=rng.randint(1, n))


def greedy_oracle(instance: IlpInstance, per_word: bool) -> tuple[tuple[int, ...], int]:
    """The solver's greedy warm start, recomputing every gain in every round.

    Add the sentence of largest gain, or gain per word, while one with a
    positive gain fits the cap and the budget; ties go to the lowest index.
    A gain is the plain sum, in concept index order, of the positive parts of
    the coefficients the sentence would newly cover.  Returns the chosen
    indices, ascending, and the bitmask of the concepts they cover.
    """
    positive = [max(c, 0.0) for c in instance.coefficients]
    masks = [sum(1 << i for i in row) for row in instance.covers]

    def gain(j: int, covered: int) -> float:
        return sum(positive[i] for i in range(len(positive)) if (masks[j] & ~covered) >> i & 1)

    chosen: list[int] = []
    used = covered = 0
    while len(chosen) < instance.sentence_cap:
        best, best_key = None, 0.0
        for j in range(len(instance.lengths)):
            if j in chosen or used + instance.lengths[j] > instance.budget:
                continue
            g = gain(j, covered)
            if g <= 0.0:
                continue
            if not per_word:
                key = g
            elif instance.lengths[j]:
                key = g / instance.lengths[j]
            else:
                key = math.inf
            if best is None or key > best_key:
                best, best_key = j, key
        if best is None:
            break
        chosen.append(best)
        used += instance.lengths[best]
        covered |= masks[best]
    return tuple(sorted(chosen)), covered


# --------------------------------------------------------------------------
# concept extraction oracle: one avg_vector and one cosine per bigram

class OracleConcept(NamedTuple):
    bigram: tuple[str, str]
    weight: int
    relevance: float


def extract_concepts_oracle(docs: list[Document], query: Query, store: EmbeddingStore
                            ) -> tuple[list[PoolSentence], list[OracleConcept]]:
    """The sentence pool and its bigram concepts, each relevance computed on its own."""
    pool: list[PoolSentence] = []
    for doc in docs:
        for sentence in doc.sentences:
            if sentence.tokens:
                pool.append(PoolSentence(document=doc.title, position=sentence.position,
                                         text=sentence.text, tokens=sentence.tokens))
    weights: dict[tuple[str, str], int] = {}
    for ps in pool:
        for bigram in sentence_bigrams(ps.tokens, store.stopwords):
            weights[bigram] = weights.get(bigram, 0) + 1
    if not weights:
        raise EmptyPool("no sentence yielded a bigram")
    query_vec = avg_vector(query.context_tokens, store)
    concepts = []
    for bigram, weight in weights.items():
        relevance = text_cosine(avg_vector(bigram, store), query_vec)
        concepts.append(OracleConcept(bigram=bigram, weight=weight, relevance=relevance))
    return pool, concepts


# --------------------------------------------------------------------------
# ranking oracle

def rank_topics_oracle(query: Query, corpus: Corpus, store: EmbeddingStore,
                       k: int = 3) -> list[Topic]:
    """Top-k topics scored document by document, with no index: the query
    against every math item by tree_similarity, every lead paragraph averaged
    anew.  This is rank_topics as it was before the inverted path index."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if len(corpus) == 0:
        raise EmptyCorpus("cannot rank topics over an empty corpus")
    query_vec = avg_vector(query.context_tokens, store)
    scored = []
    for doc in corpus:
        tree_term = max(
            (tree_similarity(query.expression, item.tree) for item in doc.math_items),
            default=0.0,
        )
        lead_vec = avg_vector(tokenize(doc.leading_paragraph), store)
        if query_vec is None or lead_vec is None:
            cos_term = 0.0
        else:
            cos_term = cosine(query_vec, lead_vec)
        scored.append(Topic(title=doc.title, score=tree_term + cos_term))
    scored.sort(key=lambda t: (-t.score, t.title))
    return scored[:k]


# --------------------------------------------------------------------------
# selection oracle

def edge_query_sim(edge: Edge, query: Query, store: EmbeddingStore) -> float:
    """Context cosine plus expression-tree similarity for one edge."""
    return (text_cosine(avg_vector(tokenize(edge.context), store),
                        avg_vector(query.context_tokens, store))
            + tree_similarity(edge.expression, query.expression))


def doc_query_sim(doc: Document, query: Query, store: EmbeddingStore) -> float:
    """Cosine between the document's leading paragraph and the query context."""
    return text_cosine(avg_vector(tokenize(doc.leading_paragraph), store),
                       avg_vector(query.context_tokens, store))


def _argmax_edge_oracle(graph: TopicRelationGraph, edges: list[Edge], query: Query,
                        store: EmbeddingStore, far_end: str) -> Edge | None:
    best: Edge | None = None
    best_score = 0.0
    for edge in edges:  # build order; strict > keeps the earliest of a tie
        far = graph.document(edge.source if far_end == "source" else edge.target)
        score = edge_query_sim(edge, query, store) + doc_query_sim(far, query, store)
        if best is None or score > best_score:
            best, best_score = edge, score
    return best


def select_relevant_oracle(graph: TopicRelationGraph, topics: list[Topic], query: Query,
                           store: EmbeddingStore) -> list[Document]:
    """Each topic's document, best citing source and best cited target, every
    edge scored on its own from its tree and texts and every far lead averaged
    anew.  This is select_relevant as it was before it read item Dice and lead
    vectors from the ranking index."""
    selected: list[Document] = []
    for topic in topics:
        if topic.title not in graph:
            continue
        selected.append(graph.document(topic.title))
        inlinks = [e for e in graph.edges if e.target == topic.title]
        citing = _argmax_edge_oracle(graph, inlinks, query, store, far_end="source")
        if citing is not None:
            selected.append(graph.document(citing.source))
        outlinks = [e for e in graph.edges if e.source == topic.title]
        cited = _argmax_edge_oracle(graph, outlinks, query, store, far_end="target")
        if cited is not None:
            selected.append(graph.document(cited.target))
    return selected


# --------------------------------------------------------------------------
# timeline oracle

def timeline_oracle(edges: set[tuple[str, str]], topics: list[str],
                    doc_titles: list[str]) -> list[tuple[str, float | None]]:
    """Recompute the timeline from an edge set alone.

    ``edges`` holds (source, target) pairs, ``topics`` the seed titles in
    rank order, ``doc_titles`` the selected titles in append order
    (duplicates allowed).
    """
    pool = list(dict.fromkeys(doc_titles))
    stamped: list[tuple[float, str]] = []
    for rank, seed in enumerate(topics, start=1):
        if seed not in pool:
            continue
        pool.remove(seed)
        stamped.append((float(rank), seed))
        for title in [t for t in pool if (seed, t) in edges]:
            pool.remove(title)
            stamped.append((rank - 0.1, title))
        for title in [t for t in pool if (t, seed) in edges]:
            pool.remove(title)
            stamped.append((rank + 0.1, title))
    ordered = sorted(stamped, key=lambda pair: pair[0])
    return [(t, ts) for ts, t in ordered] + [(t, None) for t in pool]


def timeline_violations(edges: set[tuple[str, str]], topics: list[str],
                        timeline: list[tuple[str, float | None]]) -> list[str]:
    """Check the citation-offset law directly on a finished timeline."""
    problems = []
    titles = [t for t, _ in timeline]
    if len(titles) != len(set(titles)):
        problems.append("duplicate titles in the timeline")
    order = {t: i for i, (t, _) in enumerate(timeline)}
    stamped = [(t, ts) for t, ts in timeline if ts is not None]
    stamps = [ts for _, ts in stamped]
    if stamps != sorted(stamps):
        problems.append("timestamps are not sorted ascending")
    if any(ts is not None for _, ts in timeline[len(stamped):]):
        problems.append("timestamped entry after an untimestamped one")
    seed_at = {}
    for rank, seed in enumerate(topics, start=1):
        seed_at[rank] = seed
    for title, ts in stamped:
        if ts == round(ts):  # a seed: must sit at its own topic rank
            rank = int(round(ts))
            if seed_at.get(rank) != title:
                problems.append(f"{title}: integer timestamp {ts} is not its topic rank")
            continue
        down_rank = int(round(ts + 0.1))
        up_rank = int(round(ts - 0.1))
        if ts == down_rank - 0.1 and seed_at.get(down_rank) in order:
            seed = seed_at[down_rank]
            if (seed, title) not in edges:
                problems.append(f"{title}: offset below seed without edge {seed}->{title}")
            if order[title] > order[seed]:
                problems.append(f"{title}: cited neighbour does not precede its seed")
        elif ts == up_rank + 0.1 and seed_at.get(up_rank) in order:
            seed = seed_at[up_rank]
            if (title, seed) not in edges:
                problems.append(f"{title}: offset above seed without edge {title}->{seed}")
            if order[title] < order[seed]:
                problems.append(f"{title}: citing neighbour does not follow its seed")
        else:
            problems.append(f"{title}: timestamp {ts} matches no seed")
    return problems


# --------------------------------------------------------------------------
# citation-count oracle

def citation_tallies(corpus: Corpus) -> tuple[int, int, int]:
    """(kept, dangling, self) citation counts recomputed from raw documents."""
    titles = {doc.title for doc in corpus}
    kept = dangling = selfc = 0
    for doc in corpus:
        for item in doc.math_items:
            for cited in item.cites:
                if cited == doc.title:
                    selfc += 1
                elif cited in titles:
                    kept += 1
                else:
                    dangling += 1
    return kept, dangling, selfc


# --------------------------------------------------------------------------
# tree-similarity oracle

def dice_paths_oracle(a: MathTree, b: MathTree, depth: int = PATH_DEPTH) -> float:
    """Dice overlap recomputed by recursive full-path enumeration."""
    def paths(tree: MathTree) -> Counter:
        collected: list[tuple[str, ...]] = []

        def walk(node: MathNode, ancestry: tuple[str, ...]) -> None:
            full = ancestry + (node.label,)
            collected.append(full[:depth])
            for child in node.children:
                walk(child, full)

        walk(tree.root, ())
        return Counter(collected)

    pa, pb = paths(a), paths(b)
    shared = sum((pa & pb).values())
    return 2.0 * shared / (sum(pa.values()) + sum(pb.values()))


def random_tree(rng: random.Random, max_depth: int = 4) -> MathTree:
    labels = ["+", "-", "*", "^", "f", "g", "x", "y", "z", "1", "2"]

    def build(depth: int) -> MathNode:
        if depth >= max_depth or rng.random() < 0.35:
            return MathNode(rng.choice(labels))
        arity = rng.randint(1, 3)
        return MathNode(rng.choice(labels),
                        tuple(build(depth + 1) for _ in range(arity)))

    return MathTree(build(0))


# --------------------------------------------------------------------------
# random corpora, stores, and queries for graph/timeline properties

_EXPRESSIONS = ["a+b", "x^2", "\\frac{a}{b}", "a=b", "(-1)^{n-1}",
                "F_{n+1}F_{n-1}", "a+b>c", "P(A|B)", "a*b-c"]
_VOCAB = ["series", "matrix", "prime", "field", "group", "graph", "vertex",
          "limit", "bound", "norm", "basis", "kernel", "order", "cycle"]


def random_store(rng: random.Random, dimension: int = 4) -> EmbeddingStore:
    vectors = {
        word: np.array([rng.uniform(-1.0, 1.0) for _ in range(dimension)])
        for word in _VOCAB if rng.random() < 0.8
    }
    stopwords = frozenset(rng.sample(_VOCAB, 2))
    return EmbeddingStore(dimension=dimension, vectors=vectors, stopwords=stopwords)


def _random_text(rng: random.Random, low: int = 3, high: int = 8) -> str:
    return " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(low, high)))


def random_corpus(rng: random.Random, max_docs: int = 9) -> Corpus:
    count = rng.randint(3, max_docs)
    titles = [f"Topic {chr(ord('A') + i)}" for i in range(count)]
    documents = {}
    for idx, title in enumerate(titles):
        sentences = tuple(Sentence(_random_text(rng), pos)
                          for pos in range(rng.randint(1, 4)))
        items = []
        for _ in range(rng.randint(0, 3)):
            cites = []
            for _ in range(rng.randint(0, 2)):
                roll = rng.random()
                if roll < 0.15:
                    cites.append("Missing Topic")  # dangling on purpose
                elif roll < 0.3:
                    cites.append(title)  # self citation on purpose
                else:
                    cites.append(rng.choice(titles))
            source = rng.choice(_EXPRESSIONS)
            items.append(MathItem(source=source, tree=parse_expression(source),
                                  context=_random_text(rng), cites=tuple(cites)))
        documents[title] = Document(id=f"d{idx:02d}", title=title,
                                    leading_paragraph=_random_text(rng),
                                    sentences=sentences, math_items=tuple(items))
    return Corpus(documents)


def random_hub_corpus(rng: random.Random, max_citers: int = 40) -> Corpus:
    """A hub cited by many documents, most of them alike in lead, expression and
    context, so their edges tie; the hub cites many of them back from one item.

    Some citers hold an item that cites nothing before their citing one, and
    some documents hold no math, so an edge's item number is not its position
    among the edges or among the documents.
    """
    expression, context, lead = rng.choice(_EXPRESSIONS), _random_text(rng), _random_text(rng)
    titles = [f"Citer {i:02d}" for i in range(rng.randint(2, max_citers))]
    documents = {}
    for idx, title in enumerate(titles):
        alike = rng.random() < 0.7
        items = []
        if rng.random() < 0.3:
            source = rng.choice(_EXPRESSIONS)
            items.append(MathItem(source=source, tree=parse_expression(source),
                                  context=_random_text(rng), cites=()))
        if rng.random() < 0.85:
            source = expression if alike else rng.choice(_EXPRESSIONS)
            items.append(MathItem(source=source, tree=parse_expression(source),
                                  context=context if alike else _random_text(rng),
                                  cites=("Hub",)))
        documents[title] = Document(id=f"c{idx:02d}", title=title,
                                    leading_paragraph=lead if alike else _random_text(rng),
                                    sentences=(), math_items=tuple(items))
    cited = tuple(t for t in titles if rng.random() < 0.5)
    hub_items = (MathItem(source=expression, tree=parse_expression(expression),
                          context=context, cites=cited),)
    documents["Hub"] = Document(id="hub", title="Hub", leading_paragraph=_random_text(rng),
                                sentences=(), math_items=hub_items)
    return Corpus(documents)


def random_query(rng: random.Random) -> Query:
    return Query.parse(rng.choice(_EXPRESSIONS), _random_text(rng))
