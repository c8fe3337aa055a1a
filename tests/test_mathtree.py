"""Grammar shapes, parse failures, and tree-similarity behaviour."""

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mathgloss.errors import ParseError
from mathgloss.mathtree import (IMPLICIT_MUL, MathNode, MathTree,
                                parse_expression, path_multiset,
                                tree_similarity)
from oracles import dice_paths_oracle, parse_expression_oracle, random_tree


def leaf(label):
    return MathNode(label)


# --------------------------------------------------------------------------
# grammar shapes

def test_single_symbol():
    assert parse_expression("a").root == leaf("a")


def test_number_run_is_one_leaf():
    assert parse_expression("42").root == leaf("42")


def test_additive_left_associative():
    expected = MathNode("+", (MathNode("-", (leaf("a"), leaf("b"))), leaf("c")))
    assert parse_expression("a-b+c").root == expected


def test_product_binds_tighter_than_sum():
    expected = MathNode("+", (leaf("a"), MathNode("*", (leaf("b"), leaf("c")))))
    assert parse_expression("a+b*c").root == expected


def test_adjacency_is_implicit_multiplication():
    assert parse_expression("ab").root == MathNode(IMPLICIT_MUL, (leaf("a"), leaf("b")))


def test_implicit_binds_tighter_than_explicit_product():
    ab = MathNode(IMPLICIT_MUL, (leaf("a"), leaf("b")))
    cd = MathNode(IMPLICIT_MUL, (leaf("c"), leaf("d")))
    assert parse_expression("a b * c d").root == MathNode("*", (ab, cd))


def test_scripts_bind_tighter_than_adjacency():
    expected = MathNode(IMPLICIT_MUL, (MathNode("^", (leaf("a"), leaf("b"))), leaf("c")))
    assert parse_expression("a^bc").root == expected


def test_scripts_left_associative():
    expected = MathNode("_", (MathNode("^", (leaf("x"), leaf("2"))), leaf("3")))
    assert parse_expression("x^2_3").root == expected


def test_braced_subscript():
    expected = MathNode("_", (leaf("F"), MathNode("+", (leaf("n"), leaf("1")))))
    assert parse_expression("F_{n+1}").root == expected


def test_fraction():
    assert parse_expression("\\frac{x}{y}").root == MathNode("frac", (leaf("x"), leaf("y")))


def test_unknown_command_becomes_leaf():
    assert parse_expression("\\alpha").root == leaf("alpha")


def test_scripts_of_scripts_chain_left():
    expected = MathNode("^", (MathNode("^", (leaf("a"), leaf("b"))), leaf("c")))
    assert parse_expression("a^b^c").root == expected


def test_relations_chain_left():
    expected = MathNode("=", (MathNode("=", (leaf("a"), leaf("b"))), leaf("c")))
    assert parse_expression("a=b=c").root == expected


def test_mixed_relations_chain_left():
    expected = MathNode("<", (MathNode("<", (leaf("a"), leaf("b"))), leaf("c")))
    assert parse_expression("a<b<c").root == expected


def test_named_relation():
    assert parse_expression("a \\le b").root == MathNode("le", (leaf("a"), leaf("b")))


def test_prefix_sign_in_power():
    expected = MathNode("^", (MathNode("-", (leaf("1"),)),
                              MathNode("-", (leaf("n"), leaf("1")))))
    assert parse_expression("(-1)^{n-1}").root == expected


def test_prefix_sign_binds_looser_than_a_product():
    expected = MathNode("-", (MathNode(IMPLICIT_MUL, (leaf("a"), leaf("b"))),))
    assert parse_expression("-ab").root == expected


def test_prefix_sign_after_a_relation():
    assert parse_expression("a=-b").root == MathNode("=", (leaf("a"), MathNode("-", (leaf("b"),))))


def test_conditional_bar_is_a_relation():
    expected = MathNode(IMPLICIT_MUL, (leaf("P"), MathNode("|", (leaf("A"), leaf("B")))))
    assert parse_expression("P(A|B)").root == expected


def test_squared_sum_identity_shape():
    root = parse_expression("a^2+b^2=c^2").root
    assert root.label == "="
    assert root.children[0].label == "+"
    assert [child.label for child in root.children[0].children] == ["^", "^"]
    assert root.children[1] == MathNode("^", (leaf("c"), leaf("2")))


def test_grouping_is_transparent():
    assert parse_expression("(a+b)") == parse_expression("{a+b}") == parse_expression("a+b")


def test_parse_is_deterministic():
    source = "F_n^2-F_{n+1}F_{n-1}=(-1)^{n-1}"
    assert parse_expression(source) == parse_expression(source)


# --------------------------------------------------------------------------
# parse failures

@pytest.mark.parametrize("source,position", [
    ("", 0),
    ("   ", 0),
    ("a+", 2),
    ("(a", 2),
    ("{a", 2),
    ("a)", 1),
    ("a & b", 2),
    ("\\frac x", 6),
    ("\\", 0),
    ("*a", 0),
    ("a+-b", 2),  # a sign only opens an expression or follows a relation or bracket
])
def test_rejected_expressions_carry_position(source, position):
    with pytest.raises(ParseError) as excinfo:
        parse_expression(source)
    assert excinfo.value.position == position


def test_parse_error_fields():
    with pytest.raises(ParseError) as excinfo:
        parse_expression("a+")
    assert excinfo.value.position == 2
    assert "missing operand" in excinfo.value.reason
    assert "position 2" in str(excinfo.value)


# --------------------------------------------------------------------------
# path multiset and similarity

def test_path_multiset_counts():
    assert path_multiset(parse_expression("a+b")) == Counter({
        ("+",): 1, ("+", "a"): 1, ("+", "b"): 1,
    })


def test_paths_below_cutoff_share_their_prefix():
    # c and 2 sit at depth four, so both collapse onto the ("+","*","^") path
    assert path_multiset(parse_expression("a+b*c^2")) == Counter({
        ("+",): 1, ("+", "a"): 1, ("+", "*"): 1,
        ("+", "*", "b"): 1, ("+", "*", "^"): 3,
    })


def test_identical_trees_score_one():
    tree = parse_expression("a+b")
    assert tree_similarity(tree, tree) == 1.0


def test_disjoint_labels_score_zero():
    assert tree_similarity(parse_expression("x"), parse_expression("y")) == 0.0


def test_one_shared_operand_scores_two_thirds():
    a, b = parse_expression("a+b"), parse_expression("a+c")
    assert tree_similarity(a, b) == 2 / 3


def test_differences_below_cutoff_are_invisible():
    deep_x = MathTree(MathNode("r", (MathNode("c", (MathNode("g", (leaf("x"),)),)),)))
    deep_y = MathTree(MathNode("r", (MathNode("c", (MathNode("g", (leaf("y"),)),)),)))
    assert tree_similarity(deep_x, deep_y) == 1.0


def test_swapped_relation_sides_score_one():
    # the depth cutoff leaves both orientations with the same path profile
    q = parse_expression("a^2+b^2=c^2")
    assert tree_similarity(q, parse_expression("c^2=a^2+b^2")) == 1.0


def test_nodes_iterates_whole_tree():
    tree = parse_expression("a+b*c")
    assert sorted(node.label for node in tree.nodes()) == ["*", "+", "a", "b", "c"]


_LABELS = st.sampled_from(["+", "*", "f", "x", "y", "1"])
_TREES = st.recursive(
    st.builds(MathNode, _LABELS),
    lambda child: st.builds(
        MathNode, _LABELS,
        st.lists(child, min_size=1, max_size=3).map(tuple)),
    max_leaves=25,
).map(MathTree)


@given(_TREES, _TREES)
def test_similarity_symmetric_and_bounded(a, b):
    forward, backward = tree_similarity(a, b), tree_similarity(b, a)
    assert forward == backward
    assert 0.0 <= forward <= 1.0


@given(_TREES)
def test_self_similarity_is_exactly_one(tree):
    assert tree_similarity(tree, tree) == 1.0


@given(_TREES, _TREES)
def test_similarity_matches_path_enumeration_oracle(a, b):
    assert tree_similarity(a, b) == dice_paths_oracle(a, b)


def test_similarity_matches_oracle_on_parsed_corpus_pairs():
    sources = ["a^2+b^2=c^2", "c^2=a^2+b^2", "a+b", "a+c", "\\frac{a}{c}",
               "F_{n+2}=F_{n+1}+F_n", "(-1)^{n-1}", "P(A|B)"]
    trees = [parse_expression(s) for s in sources]
    for a in trees:
        for b in trees:
            assert tree_similarity(a, b) == dice_paths_oracle(a, b)


def test_random_tree_generator_round_trips_with_oracle():
    rng = random.Random(7)
    for _ in range(50):
        a, b = random_tree(rng), random_tree(rng)
        assert tree_similarity(a, b) == dice_paths_oracle(a, b)


def test_nesting_beyond_the_recursion_limit_is_a_parse_error():
    source = "(" * 3000 + "a" + ")" * 3000
    with pytest.raises(ParseError) as excinfo:
        parse_expression(source)
    assert excinfo.value.reason == "expression nested too deeply"
    assert 0 < excinfo.value.position < 3000
    assert source[excinfo.value.position] == "("


def test_moderate_nesting_still_parses_to_the_same_tree():
    for depth in (1, 20, 100):
        nested = "(" * depth + "a+{b^2}" + ")" * depth
        assert parse_expression(nested) == parse_expression("a+{b^2}")


def test_three_hundred_parentheses_parse_to_the_same_tree():
    # a nesting level costs the parser two frames, atom and expr, so this
    # depth stays well inside the default recursion limit of 1000
    nested = "(" * 300 + "a+{b^2}" + ")" * 300
    assert parse_expression(nested) == parse_expression("a+{b^2}")


def test_nesting_too_deep_points_at_the_source_position_of_a_parenthesis():
    # with a space after each bracket, a token's number is not its position
    source = "( " * 3000 + "a" + " )" * 3000
    with pytest.raises(ParseError) as excinfo:
        parse_expression(source)
    assert excinfo.value.reason == "expression nested too deeply"
    assert 0 < excinfo.value.position < 2 * 3000
    assert source[excinfo.value.position] == "("


# --------------------------------------------------------------------------
# agreement with the oracle parser

_ATOMS = st.sampled_from(["a", "b", "x", "F", "1", "42", "\\alpha", "\\pi "])
_BINARY = st.sampled_from(["=", "<", ">", "|", "\\le ", "\\ge ", "\\ne ",
                           "+", "-", "*", "/", "^", "_", "", " "])
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: (st.tuples(inner, _BINARY, inner).map("".join)
                   | st.tuples(st.sampled_from(["-", "+"]), inner).map("".join)
                   | inner.map(lambda e: f"({e})")
                   | inner.map(lambda e: f"{{{e}}}")
                   | st.tuples(inner, inner).map(lambda p: f"\\frac{{{p[0]}}}{{{p[1]}}}")),
    max_leaves=12)
_EDIT_CHARACTERS = st.sampled_from(list("+-*/^_=<>|(){}\\ a1&"))


@st.composite
def _near_grammatical(draw):
    """A grammar-drawn expression, half the time with one character inserted or deleted."""
    source = draw(_EXPRESSIONS)
    edit = draw(st.sampled_from([None, None, "insert", "delete"]))
    if edit == "insert":
        at = draw(st.integers(0, len(source)))
        source = source[:at] + draw(_EDIT_CHARACTERS) + source[at:]
    elif edit == "delete":
        at = draw(st.integers(0, len(source) - 1))
        source = source[:at] + source[at + 1:]
    return source


@settings(max_examples=2000)
@given(_near_grammatical())
def test_parser_agrees_with_the_oracle(source):
    try:
        expected = parse_expression_oracle(source)
    except ParseError as exc:
        assume(exc.reason != "expression nested too deeply")
        with pytest.raises(ParseError) as excinfo:
            parse_expression(source)
        assert (excinfo.value.position, excinfo.value.reason) == (exc.position, exc.reason)
    else:
        assert parse_expression(source) == expected


def _parse_nested(parse, depth):
    """parse of depth parentheses around a+{b^2}; None if nested too deeply."""
    try:
        return parse("(" * depth + "a+{b^2}" + ")" * depth)
    except ParseError as exc:
        assert exc.reason == "expression nested too deeply"
        return None


def test_nesting_reach_matches_the_oracle():
    low, high = 0, 3000  # the oracle parses low parentheses deep, not high
    assert _parse_nested(parse_expression_oracle, high) is None
    while high - low > 1:
        mid = (low + high) // 2
        if _parse_nested(parse_expression_oracle, mid) is None:
            high = mid
        else:
            low = mid
    deepest = _parse_nested(parse_expression, low)  # called at the oracle's call depth
    assert deepest == _parse_nested(parse_expression_oracle, low) == parse_expression("a+{b^2}")
