"""A fixed reference task that measures how fast the machine runs Python right now.

A shared VM changes speed for tens of seconds at a time: the same `describe`
call took 1.5 s in one minute and 2.5 s in the next.  A run is too short to
average that out, so the benchmark times each query against this task, timed
in the same process shortly before the query.  The ratio of the two cancels
the machine's speed and keeps the program's.

The task does the kinds of interpreter work the program does: parse JSON
lines, split and count words, build an inverted index, sort, and score small
float vectors, as loading and ranking do; and a recursive search over subsets
held as integer bit masks, with float sums over the set bits, as the exact
solver does.  Its input is fixed; it depends neither on the workload's seed
nor on the program, so a change to the program moves the ratio only through
the query's time.  It runs with the cyclic garbage collector off, so the
program's live heap does not change its cost.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time

_DOCUMENTS = 4000
_WORDS = 2000
_DIMENSION = 16
_ITEM_COUNT = 18   # items whose subsets the recursive part searches
_CONCEPTS = 60


def _make_input():
    rng = random.Random(20210424)
    words = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(2, 9)))
             for _ in range(_WORDS)]
    lines = "\n".join(json.dumps({
        "title": rng.choice(words),
        "text": " ".join(rng.choices(words, k=20)),
        "math": [rng.choice(words) for _ in range(3)],
    }) for _ in range(_DOCUMENTS))
    vectors = {w: [rng.uniform(-1.0, 1.0) for _ in range(_DIMENSION)] for w in words}
    items = [(rng.randint(5, 20), sum(1 << c for c in rng.sample(range(_CONCEPTS), 6)))
             for _ in range(_ITEM_COUNT)]
    weights = [rng.uniform(0.0, 1.0) for _ in range(_CONCEPTS)]
    return lines, vectors, items, weights


_LINES, _VECTORS, _ITEMS, _WEIGHTS = _make_input()


def _covered_weight(mask: int) -> float:
    total = 0.0
    while mask:
        low = mask & -mask
        total += _WEIGHTS[low.bit_length() - 1]
        mask ^= low
    return total


def _search(index: int, budget: int, covered: int) -> float:
    """Best covered weight over subsets of items[index:] within a length budget."""
    best = _covered_weight(covered)
    for i in range(index, _ITEM_COUNT):
        length, concepts = _ITEMS[i]
        if length <= budget:
            best = max(best, _search(i + 1, budget - length, covered | concepts))
    return best


def _work() -> int:
    counts: dict[str, int] = {}
    index: dict[str, list[int]] = {}
    score = 0.0
    for i, line in enumerate(_LINES.split("\n")):
        doc = json.loads(line)
        words = doc["text"].split()
        for w in words:
            counts[w] = counts.get(w, 0) + 1
        for m in doc["math"]:
            index.setdefault(m, []).append(i)
        a, b = _VECTORS[words[0]], _VECTORS[words[-1]]
        dot = sum(x * y for x, y in zip(a, b))
        score += dot / math.sqrt(sum(x * x for x in a) * sum(y * y for y in b))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    best = _search(0, 60, 0)
    return len(ranked) + len(index) + int(score) + int(1000 * best)


EXPECTED = _work()


def time_reference() -> float:
    """Wall time of one run of the reference task, in seconds."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = _work()
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference task gave {result}, expected {EXPECTED}")
    return seconds
