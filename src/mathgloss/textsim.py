"""Word vectors and the cosine machinery used by every text scorer.

Vectors come from a plain text file, one token per line followed by its
components.  A companion stopword file lists one token per line.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .corpus import nogc, numbered_lines
from .errors import DimensionMismatch, EmptyVectorFile


@dataclass
class EmbeddingStore:
    dimension: int
    vectors: dict[str, np.ndarray]
    stopwords: frozenset[str]

    def __contains__(self, token: str) -> bool:
        return token in self.vectors


def load_stopwords(path: str | Path) -> frozenset[str]:
    with open(path, encoding="utf-8") as fh:
        return read_stopwords(fh, path)


def read_stopwords(fh: TextIO, name: str | Path) -> frozenset[str]:
    """load_stopwords on an open text stream; name stands for the file in messages."""
    words = set()
    for _, line in numbered_lines(fh, name):
        word = line.strip().lower()
        if word:
            words.add(word)
    return frozenset(words)


def load_vectors(path: str | Path, stopword_path: str | Path) -> EmbeddingStore:
    """Read the vector and stopword files; every row must share one dimension."""
    with open(path, encoding="utf-8") as fh:
        dimension, vectors = read_vectors(fh, path)
    return EmbeddingStore(dimension=dimension, vectors=vectors,
                          stopwords=load_stopwords(stopword_path))


@nogc
def read_vectors(fh: TextIO, name: str | Path) -> tuple[int, dict[str, np.ndarray]]:
    """The dimension and the rows of a vector file, read from an open text stream.

    Every component must be a finite number: one inf or nan would turn every
    cosine it reaches into nan.
    """
    vectors: dict[str, np.ndarray] = {}
    dimension: int | None = None
    for line_number, line in numbered_lines(fh, name):
        parts = line.split()
        if not parts:
            continue
        token, raw_values = parts[0], parts[1:]
        try:
            floats = [float(v) for v in raw_values]
        except ValueError as exc:
            raise DimensionMismatch(f"line {line_number}: non-numeric component") from exc
        # a sum is finite only if every component is, so it screens the row cheaply
        if not math.isfinite(sum(floats)) and not all(map(math.isfinite, floats)):
            raise DimensionMismatch(f"line {line_number}: non-finite component")
        values = np.array(floats, dtype=np.float64)
        if dimension is None:
            if len(values) == 0:
                raise DimensionMismatch(f"line {line_number}: row has no components")
            dimension = len(values)
        elif len(values) != dimension:
            raise DimensionMismatch(
                f"line {line_number}: expected {dimension} components, found {len(values)}"
            )
        vectors[token] = values
    if dimension is None:
        raise EmptyVectorFile(f"no vector rows in {name}")
    return dimension, vectors


def avg_vector(tokens, store: EmbeddingStore) -> np.ndarray | None:
    """Mean vector over non-stopword in-vocabulary tokens; None when nothing matches.

    Contributing tokens are summed in sorted order so the result does not
    depend on the ordering of the input list.  The fallback works column by
    column: only a component whose sum overflows is averaged by
    _mean_without_overflow instead, so the mean of finite vectors is always
    finite and every other component is the plain quotient of its sum.
    """
    contributing = sorted(
        t for t in tokens if t not in store.stopwords and t in store.vectors
    )
    if not contributing:
        return None
    total = np.zeros(store.dimension, dtype=np.float64)
    with np.errstate(over="ignore"):
        for token in contributing:
            total += store.vectors[token]
    mean = total / len(contributing)
    overflowed = np.isinf(total)  # finite rows never sum to NaN
    if overflowed.any():
        rows = np.array([store.vectors[t] for t in contributing])
        mean[overflowed] = _mean_without_overflow(rows[:, overflowed])
    return mean


def _mean_without_overflow(rows: np.ndarray) -> np.ndarray:
    """The mean of finite rows whose plain sum overflows.

    The rows are summed at the power-of-two scale 2**-p with 2**p > len(rows),
    so no partial sum can reach the largest float; the quotient is scaled back
    and clipped to the rows' range, which the exact mean never leaves, so a
    rounding past the largest float cannot make it infinite.
    """
    exponent = len(rows).bit_length()
    scaled = np.ldexp(rows, -exponent).sum(axis=0) / len(rows)
    with np.errstate(over="ignore"):
        mean = np.ldexp(scaled, exponent)
    return np.clip(mean, rows.min(axis=0), rows.max(axis=0))


def text_cosine(a: np.ndarray | None, b: np.ndarray | None) -> float:
    """cosine of two avg_vector results; 0.0 when either text had no usable token."""
    if a is None or b is None:
        return 0.0
    return cosine(a, b)


_TINY = sys.float_info.min  # smallest normal double


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm.

    The denominator is sqrt(<a,a>*<b,b>), which keeps cosine(a, 2a) exactly 1.
    When a squared norm or their product leaves the normal float range (it
    underflows or overflows) both vectors are first scaled by powers of two so
    their largest component lies in [0.5, 1), which brings the norms back into
    the normal range without rounding any component that is itself normal.
    """
    if a.shape != b.shape:
        raise DimensionMismatch(f"operands of dimension {a.shape[0]} and {b.shape[0]}")
    # vdot runs dot's kernel without the check that warns when a norm overflows
    aa, bb = float(np.vdot(a, a)), float(np.vdot(b, b))
    if not (aa >= _TINY and bb >= _TINY and _TINY <= aa * bb < math.inf):
        a, b = _unit_scaled(a), _unit_scaled(b)
        if a is None or b is None:
            return 0.0
        aa, bb = float(np.vdot(a, a)), float(np.vdot(b, b))
    return float(np.vdot(a, b)) / math.sqrt(aa * bb)



def approximate_cosines(rows: np.ndarray, row_norms: np.ndarray,
                        v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cosine(v, row) for every row of a matrix at once, and where it holds.

    row_norms holds each row's squared norm.  The estimates sum in another
    order than cosine does.  Where the mask is true, v's squared norm, the
    row's and their product are normal floats, and an estimate is within
    about (d + 3) * 2**-53 of cosine for d components; elsewhere cosine
    rescales and the estimate means nothing.
    """
    with np.errstate(all="ignore"):
        norm = float(np.dot(v, v))
        products = norm * row_norms
        estimates = (rows @ v) / np.sqrt(products)
    holds = ((row_norms >= _TINY) & (products >= _TINY) & (products < math.inf)
             & (norm >= _TINY))
    return estimates, holds

def _unit_scaled(v: np.ndarray) -> np.ndarray | None:
    """v times the power of two that puts max|v| in [0.5, 1); None for a zero vector."""
    largest = float(np.max(np.abs(v)))
    if largest == 0.0:
        return None
    return np.ldexp(v, -math.frexp(largest)[1])
