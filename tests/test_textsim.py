"""Vector loading, token averaging, and cosine behaviour."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mathgloss import avg_vector, cosine, load_stopwords, load_vectors
from mathgloss.errors import DimensionMismatch, EmptyVectorFile
from mathgloss.textsim import EmbeddingStore


def _store(vectors, stopwords=()):
    dimension = len(next(iter(vectors.values())))
    return EmbeddingStore(
        dimension=dimension,
        vectors={k: np.array(v, dtype=np.float64) for k, v in vectors.items()},
        stopwords=frozenset(stopwords),
    )


# --------------------------------------------------------------------------
# file loading

def test_fixture_store_shape(store):
    assert store.dimension == 6
    assert len(store.vectors) == 50
    assert "triangle" in store
    assert "the" not in store
    assert "the" in store.stopwords


def test_stopword_file_lowercased_and_trimmed(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The\n  and \n\nof\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "and", "of"})


def _write_vectors(tmp_path, content):
    vec = tmp_path / "vectors.txt"
    vec.write_text(content, encoding="utf-8")
    stop = tmp_path / "stop.txt"
    stop.write_text("the\n", encoding="utf-8")
    return vec, stop


def test_ragged_rows_rejected(tmp_path):
    vec, stop = _write_vectors(tmp_path, "a 1 0\nb 1\n")
    with pytest.raises(DimensionMismatch, match="line 2"):
        load_vectors(vec, stop)


def test_non_numeric_component_rejected(tmp_path):
    vec, stop = _write_vectors(tmp_path, "a 1 x\n")
    with pytest.raises(DimensionMismatch, match="non-numeric"):
        load_vectors(vec, stop)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_component_rejected(tmp_path, value):
    vec, stop = _write_vectors(tmp_path, f"a 1 0\nb {value} 1\n")
    with pytest.raises(DimensionMismatch, match="line 2: non-finite"):
        load_vectors(vec, stop)


def test_component_free_row_rejected(tmp_path):
    vec, stop = _write_vectors(tmp_path, "a\n")
    with pytest.raises(DimensionMismatch, match="no components"):
        load_vectors(vec, stop)


def test_empty_vector_file_rejected(tmp_path):
    vec, stop = _write_vectors(tmp_path, "")
    with pytest.raises(EmptyVectorFile):
        load_vectors(vec, stop)
    vec.write_text("\n   \n", encoding="utf-8")
    with pytest.raises(EmptyVectorFile):
        load_vectors(vec, stop)


def test_loaded_values_match_file(tmp_path):
    vec, stop = _write_vectors(tmp_path, "a 1 0\nb 0.5 -2\n")
    loaded = load_vectors(vec, stop)
    assert loaded.dimension == 2
    assert loaded.vectors["b"].tolist() == [0.5, -2.0]


# --------------------------------------------------------------------------
# averaging

def test_avg_of_two_one_hots():
    store = _store({"a": (1.0, 0.0), "b": (0.0, 1.0)})
    assert avg_vector(["a", "b"], store).tolist() == [0.5, 0.5]


def test_avg_skips_stopwords_and_unknown_tokens():
    store = _store({"a": (1.0, 0.0), "b": (0.0, 1.0)}, stopwords={"b"})
    assert avg_vector(["a", "b", "zz"], store).tolist() == [1.0, 0.0]


def test_avg_counts_repeated_tokens():
    store = _store({"a": (3.0, 0.0), "b": (0.0, 3.0)})
    assert avg_vector(["a", "a", "b"], store).tolist() == [2.0, 1.0]


def test_avg_returns_none_when_nothing_contributes():
    store = _store({"a": (1.0, 0.0)}, stopwords={"the"})
    assert avg_vector(["the", "zz"], store) is None
    assert avg_vector([], store) is None


def test_avg_of_rows_whose_sum_overflows_is_their_finite_mean():
    big = sys.float_info.max
    store = _store({"a": (1.7e308, -1.0), "b": (1.7e308, 3.0), "c": (big, -big),
                    "d": (big, -big), "e": (big, -big)})
    assert avg_vector(["a", "b"], store).tolist() == [1.7e308, 1.0]
    assert avg_vector(["c", "d", "e"], store).tolist() == [big, -big]


@given(st.lists(st.tuples(st.floats(min_value=1e307, max_value=sys.float_info.max),
                          st.floats(min_value=-1e308, max_value=1e308)),
                min_size=2, max_size=9))
@example([(4.4668836181829024e+307, 0.0)] * 3)  # 3x / 3 rounds one ulp below x
@example([(1e307, 5e-324), (6.563516109994806e307, 0.0),  # only column 0 overflows;
          (1.0413415238628353e308, 5e-324)])              # column 1 keeps its plain mean
def test_avg_stays_finite_and_within_the_rows(rows):
    # A finite running sum takes the plain path, whose mean may round just
    # outside the rows (three rows of 0.1 average to 0.10000000000000002); only
    # the mean of an overflowing sum is clipped to the rows' range.
    store = _store({f"w{i}": row for i, row in enumerate(rows)})
    mean = avg_vector(list(store.vectors), store)
    assert np.isfinite(mean).all()
    for column, value in zip(zip(*(store.vectors[t] for t in sorted(store.vectors))),
                             mean.tolist()):
        total = 0.0
        for component in column:
            total += float(component)
        if math.isfinite(total):
            assert value.hex() == (total / len(column)).hex()
        else:
            assert min(column) <= value <= max(column)

def test_avg_is_order_invariant_bitwise(store):
    tokens = ["triangle", "geometry", "theorem", "fibonacci", "probability",
              "right", "golden", "distance"]
    base = avg_vector(tokens, store)
    assert np.array_equal(avg_vector(list(reversed(tokens)), store), base)


@given(st.permutations(["triangle", "geometry", "theorem", "fibonacci",
                        "probability", "right", "golden", "distance"]))
def test_avg_permutation_invariant(store, perm):
    base = avg_vector(["triangle", "geometry", "theorem", "fibonacci",
                       "probability", "right", "golden", "distance"], store)
    assert np.array_equal(avg_vector(list(perm), store), base)


# --------------------------------------------------------------------------
# cosine

def test_cosine_worked_example_is_exact():
    assert cosine(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == 0.8


def test_cosine_orthogonal_vectors():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0


def test_cosine_zero_vector_scores_zero():
    assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
    assert cosine(np.zeros(3), np.zeros(3)) == 0.0


def test_cosine_self_and_scaled_self_are_exactly_one():
    v = np.array([0.3, -1.7, 2.9])
    assert cosine(v, v) == 1.0
    assert cosine(v, 2.0 * v) == 1.0
    assert cosine(v, -v) == -1.0


def test_cosine_stays_exact_when_a_norm_leaves_the_normal_range():
    tiny = np.array([2.066147579417722e-158])  # its square is subnormal
    assert cosine(np.array([1.0]), tiny) == 1.0
    assert cosine(np.array([7220.0]), tiny) == 1.0
    assert cosine(np.array([1e-170]), np.array([-1e-170])) == -1.0
    assert cosine(np.array([1e200, 0.0]), np.array([3e200, 0.0])) == 1.0


def test_cosine_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        cosine(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


_COMPONENTS = st.floats(min_value=-1e6, max_value=1e6,
                        allow_nan=False, allow_infinity=False)


@given(st.data())
def test_cosine_symmetric_and_bounded(data):
    size = data.draw(st.integers(min_value=1, max_value=8))
    a = np.array(data.draw(st.lists(_COMPONENTS, min_size=size, max_size=size)))
    b = np.array(data.draw(st.lists(_COMPONENTS, min_size=size, max_size=size)))
    value = cosine(a, b)
    assert value == cosine(b, a)
    assert abs(value) <= 1.0 + 1e-12


_SAFE_MAGNITUDE = st.floats(min_value=1e-3, max_value=1e3,
                            allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_SAFE_MAGNITUDE, st.booleans()), min_size=1, max_size=8))
def test_cosine_invariant_under_positive_scaling(parts):
    a = np.array([m if positive else -m for m, positive in parts])
    assert cosine(a, 2.0 * a) == 1.0
    assert cosine(a, 0.5 * a) == 1.0
