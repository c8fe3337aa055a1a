"""Seeded synthetic corpora for the benchmark, written in mathgloss's input formats.

`generate(spec, seed, directory)` writes four files:

    corpus.jsonl    one document per line, the format `load_corpus` reads
    vectors.txt     `token v1 ... vd` rows, the format `load_vectors` reads
    stopwords.txt   one token per line
    queries.jsonl   {"expr", "context", "origin"} per line; the program only
                    ever receives expr and context, origin is the document the
                    query was derived from

The same (spec, seed, part) gives byte-identical files.  Words follow a Zipf law
over a syllable vocabulary whose top ranks are stopwords; some words have no
vector (out-of-vocabulary); a share of documents carries no math; citation
targets follow a Zipf law over a shuffled title order, so a few documents are
hubs with many inlinks; a small share of citations name a missing title or the
citing document itself.  Each query is a corpus expression with one leaf or
operator changed, and a context drawn from its document's lead paragraph.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

STOPWORDS = ("the", "of", "and", "a", "to", "in", "is", "for", "that", "by",
             "with", "as", "on", "are", "this", "be", "from", "at", "an", "or",
             "which", "its", "it", "we", "each")
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "gr", "st", "tr", "pl", "ch", "sh", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ie")
_CODAS = ("", "", "", "n", "r", "s", "l", "m", "x")
_LETTERS = "abcdefghijkmnpqrstuvwxyz"
_COMMANDS = ("alpha", "beta", "gamma", "pi", "theta", "lambda", "sigma", "omega",
             "infty", "sum", "int", "log", "sin", "cos", "sqrt", "partial")
_RELATIONS = ("=", "=", "=", "<", r"\le")
_BINARY = ("+", "-", "*", "/")
_TEMPLATES = 400
VOCABULARY = 5000
OOV_SHARE = 0.15        # vocabulary words left out of vectors.txt
DIMENSION = 24
DANGLING_SHARE = 0.03   # citations naming a title not in the corpus
SELF_SHARE = 0.01       # citations naming the citing document


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one synthetic corpus and of its query list."""

    documents: int
    sentences: tuple[int, int]          # inclusive range per document
    words: tuple[int, int]              # inclusive range per sentence
    math_items: tuple[int, int]         # per document that has math
    no_math_share: float
    cites: tuple[int, int]              # per math item
    queries: int


class _Zipf:
    """Draws ranks 0..n-1 with probability proportional to 1 / (rank + 1) ** s."""

    def __init__(self, n: int, s: float):
        self.cumulative = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(n)))

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect(self.cumulative, rng.random() * self.cumulative[-1])


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen = set(STOPWORDS)
    while len(words) < size:
        syllables = rng.randint(2, 4)
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        word += rng.choice(_CODAS)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


# Expression trees are tuples: (text,) for a leaf, (op, left, right) otherwise.
# Precedence follows the grammar in mathgloss.mathtree: relations bind loosest,
# then + -, then * /, then implicit products, then ^ _, then atoms and \frac.
_PRECEDENCE = {"=": 0, "<": 0, r"\le": 0, "+": 1, "-": 1, "*": 2, "/": 2,
               " ": 3, "^": 4, "_": 4, "frac": 5}


def _precedence(tree: tuple) -> int:
    return 5 if len(tree) == 1 else _PRECEDENCE[tree[0]]


def render(tree: tuple) -> str:
    """Source text that `parse_expression` reads back as the same tree shape."""
    if len(tree) == 1:
        return tree[0]
    op, left, right = tree
    if op == "frac":
        return rf"\frac{{{render(left)}}}{{{render(right)}}}"
    if op in ("^", "_"):
        base = render(left) if _precedence(left) >= 4 else f"({render(left)})"
        return f"{base}{op}{{{render(right)}}}"
    p = _PRECEDENCE[op]
    # left-associative operators: the right operand needs parentheses at equal precedence
    lhs = render(left) if _precedence(left) >= p else f"({render(left)})"
    rhs = render(right) if _precedence(right) > p else f"({render(right)})"
    if op == " ":
        return f"{lhs} {rhs}"
    return f"{lhs} {op} {rhs}"


def _leaf(rng: random.Random) -> tuple:
    roll = rng.random()
    if roll < 0.6:
        return (rng.choice(_LETTERS),)
    if roll < 0.85:
        return (str(rng.randint(1, 12)),)
    return ("\\" + rng.choice(_COMMANDS),)


def _term(rng: random.Random, depth: int) -> tuple:
    if depth <= 0 or rng.random() < 0.3:
        return _leaf(rng)
    roll = rng.random()
    if roll < 0.45:
        return (rng.choice(_BINARY), _term(rng, depth - 1), _term(rng, depth - 1))
    if roll < 0.65:
        return ("^", _term(rng, depth - 2), _term(rng, depth - 2))
    if roll < 0.75:
        return ("_", _leaf(rng), _leaf(rng))
    if roll < 0.88:
        return (" ", _term(rng, depth - 1), _term(rng, depth - 2))
    return ("frac", _term(rng, depth - 1), _term(rng, depth - 1))


def _expression(rng: random.Random) -> tuple:
    if rng.random() < 0.65:
        return (rng.choice(_RELATIONS), _term(rng, 3), _term(rng, 3))
    tree = _term(rng, 4)
    while len(tree) == 1:  # a lone symbol shares no label path with its perturbation
        tree = _term(rng, 4)
    return tree


def _leaves(tree: tuple, path: tuple = ()) -> list[tuple]:
    if len(tree) == 1:
        return [path]
    return _leaves(tree[1], path + (1,)) + _leaves(tree[2], path + (2,))


def _replace(tree: tuple, path: tuple, new: tuple) -> tuple:
    if not path:
        return new
    parts = list(tree)
    parts[path[0]] = _replace(tree[path[0]], path[1:], new)
    return tuple(parts)


def _vary(rng: random.Random, tree: tuple) -> tuple:
    """Rename a share of the leaves, so items drawn from one template differ."""
    for path in _leaves(tree):
        if rng.random() < 0.3:
            tree = _replace(tree, path, _leaf(rng))
    return tree


def _operators(tree: tuple, path: tuple = ()) -> list[tuple]:
    """Paths of the nodes below the root whose operator is one of + - * /."""
    if len(tree) == 1:
        return []
    below = _operators(tree[1], path + (1,)) + _operators(tree[2], path + (2,))
    return below + [path] if path and tree[0] in _BINARY else below


def _with_operator(tree: tuple, path: tuple, op: str) -> tuple:
    if not path:
        return (op,) + tree[1:]
    parts = list(tree)
    parts[path[0]] = _with_operator(tree[path[0]], path[1:], op)
    return tuple(parts)


def perturb(rng: random.Random, tree: tuple) -> tuple:
    """One changed leaf, or one changed operator among + - * /; never the same tree.

    The root's operator stays: label paths start at the root, so a new root
    operator would leave the query no path in common with its source.
    """
    while True:
        operators = _operators(tree)
        if operators and rng.random() < 0.3:
            changed = _with_operator(tree, rng.choice(operators), rng.choice(_BINARY))
        else:
            changed = _replace(tree, rng.choice(_leaves(tree)), _leaf(rng))
        if changed != tree:
            return changed


def _sentence(rng: random.Random, spec: CorpusSpec, words: list[str], zipf: _Zipf,
              theme: list[str]) -> str:
    tokens = []
    for _ in range(rng.randint(*spec.words)):
        roll = rng.random()
        if roll < 0.2:
            tokens.append(rng.choice(theme))
        elif roll < 0.22:
            tokens.append(f"({words[zipf.draw(rng)]}")  # edge punctuation tokenize strips
        elif roll < 0.23:
            tokens.append(f"{rng.choice(_LETTERS)}{rng.randint(0, 99)}")
        else:
            tokens.append(words[zipf.draw(rng)])
        if rng.random() < 0.06:
            tokens[-1] += ","
    tokens[0] = tokens[0].capitalize()
    return " ".join(tokens) + "."


def _context(rng: random.Random, words: list[str], zipf: _Zipf, theme: list[str]) -> str:
    picks = [rng.choice(theme) for _ in range(2)]
    picks += [words[zipf.draw(rng)] for _ in range(rng.randint(3, 8))]
    rng.shuffle(picks)
    return " ".join(picks)


def generate(spec: CorpusSpec, seed: int, directory: str | Path, part: int = 0) -> dict[str, Path]:
    """Write the four files for (spec, seed, part) into directory and return their paths.

    Parts of one seed are independent corpora of the same shape.
    """
    rng = random.Random(f"{seed}/{part}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    vocabulary = _vocabulary(rng, VOCABULARY)
    # stopwords take the most frequent ranks, as in natural text
    words = [w for pair in zip(STOPWORDS, vocabulary) for w in pair]
    words += vocabulary[len(STOPWORDS):]
    word_zipf = _Zipf(len(words), 1.05)
    theme_zipf = _Zipf(len(vocabulary), 0.6)
    templates = [_expression(rng) for _ in range(_TEMPLATES)]
    # a flat law: with a steep one a few random templates set the size of
    # most expressions, and with it the cost of a whole corpus
    template_zipf = _Zipf(_TEMPLATES, 0.3)

    n = spec.documents
    titles = []
    for i in range(n):
        first, second = rng.choice(vocabulary), rng.choice(vocabulary)
        titles.append(f"{first.capitalize()} {second} {i}")
    popularity = list(range(n))
    rng.shuffle(popularity)  # popularity[r] is the document at citation rank r
    cite_zipf = _Zipf(n, 1.0)

    records, item_trees = [], []
    for i, title in enumerate(titles):
        theme = [vocabulary[theme_zipf.draw(rng)] for _ in range(3)]
        sentences = [_sentence(rng, spec, words, word_zipf, theme)
                     for _ in range(rng.randint(*spec.sentences))]
        math, trees = [], []
        if rng.random() >= spec.no_math_share:
            for _ in range(rng.randint(*spec.math_items)):
                tree = _vary(rng, templates[template_zipf.draw(rng)])
                cites = []
                for _ in range(rng.randint(*spec.cites)):
                    roll = rng.random()
                    if roll < DANGLING_SHARE:
                        cites.append(f"{rng.choice(vocabulary).capitalize()} "
                                     f"{rng.choice(vocabulary)} {n + rng.randrange(n)}")
                    elif roll < DANGLING_SHARE + SELF_SHARE:
                        cites.append(title)
                    else:
                        cites.append(titles[popularity[cite_zipf.draw(rng)]])
                math.append({"source": render(tree),
                             "context": _context(rng, words, word_zipf, theme),
                             "cites": cites})
                trees.append(tree)
        records.append({"id": f"d{i:06d}", "title": title,
                        "leading_paragraph": sentences[0],
                        "sentences": sentences, "math": math})
        item_trees.append(trees)

    # queries come from documents with math; half are drawn with the citation
    # skew so hub documents, whose many inlinks the selector scores, appear
    queries = []
    while len(queries) < spec.queries:
        if rng.random() < 0.5:
            i = popularity[cite_zipf.draw(rng)]
        else:
            i = rng.randrange(n)
        if not item_trees[i]:
            continue
        tree = perturb(rng, rng.choice(item_trees[i]))
        lead_words = [w for w in records[i]["leading_paragraph"].lower().rstrip(".").split()
                      if w not in STOPWORDS]
        picks = rng.sample(lead_words, min(len(lead_words), rng.randint(3, 6)))
        picks += [words[word_zipf.draw(rng)] for _ in range(2)]
        queries.append({"expr": render(tree), "context": " ".join(picks),
                        "origin": titles[i]})

    paths = {name: directory / name for name in
             ("corpus.jsonl", "vectors.txt", "stopwords.txt", "queries.jsonl")}
    _write_lines(paths["corpus.jsonl"], (json.dumps(r, ensure_ascii=False) for r in records))
    embedded = [w for w in vocabulary if rng.random() >= OOV_SHARE]
    _write_lines(paths["vectors.txt"], (
        w + " " + " ".join(f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(DIMENSION))
        for w in list(STOPWORDS) + embedded))
    _write_lines(paths["stopwords.txt"], STOPWORDS)
    _write_lines(paths["queries.jsonl"], (json.dumps(q, ensure_ascii=False) for q in queries))
    return paths


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def read_queries(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main() -> None:
    import argparse

    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Write one workload's generated input files.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="directory to write into: one subdirectory part<n> per corpus")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    for part in range(workload.corpora):
        generate(workload.corpus, args.seed, Path(args.out) / f"part{part}", part)


if __name__ == "__main__":
    main()
