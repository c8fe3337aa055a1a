"""Parsing of a small LaTeX-flavoured expression language into labelled trees,
plus a path-multiset similarity between two trees.

The grammar is deliberately narrow: single-letter identifiers, integer
literals, relations (= < > | \\le \\ge \\ne), sums and differences, explicit
products (* /), implicit products by juxtaposition, superscripts and
subscripts, fractions, and grouping with braces or parentheses.  Any
unrecognised \\command becomes a leaf symbol carrying the command name.

Binding order, loosest first: relations, sums, products, juxtaposition,
scripts.  Every level is left-associative, so a^b^c is (a^b)^c and a<b<c is
(a<b)<c.  A prefix sign may open an expression, follow a relation or follow
an opening bracket, and binds looser than any product: -ab is -(a·b) and
a=-b parses, so forms such as (-1)^{n-1} do, but a+-b fails at the second
sign.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ParseError

# one label path is kept per node, cut off after this many labels
PATH_DEPTH = 3

IMPLICIT_MUL = "·"

# token kind of each single-character operator and bracket
_KINDS = {"(": "LPAREN", ")": "RPAREN", "{": "LBRACE", "}": "RBRACE",
          **dict.fromkeys("+-*/^_=<>|", "OP")}
_NAMED_RELATIONS = ("le", "ge", "ne")

# binary operators by level, loosest first; None marks juxtaposition
_LEVELS = (
    frozenset("=<>|").union(_NAMED_RELATIONS),
    frozenset("+-"),
    frozenset("*/"),
    None,
    frozenset("^_"),
)
_SIGNED = 1  # the level whose operators may also stand as a prefix sign
_ATOM_STARTS = frozenset({"SYMBOL", "NUMBER", "COMMAND", "LPAREN", "LBRACE"})
# each opening bracket's closing token kind, and how an error names it
_CLOSERS = {"LPAREN": ("RPAREN", "')'"), "LBRACE": ("RBRACE", "'}'")}


@dataclass(frozen=True, slots=True)
class MathNode:
    label: str
    children: tuple["MathNode", ...] = ()


@dataclass(frozen=True, slots=True)
class MathTree:
    root: MathNode

    def nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # SYMBOL NUMBER COMMAND OP LPAREN RPAREN LBRACE RBRACE END
    value: str
    position: int


def _lex(source: str) -> list[_Token]:
    """Tokens of source, ending with an END token at len(source)."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if ch.isalpha():
            tokens.append(_Token("SYMBOL", ch, i))
        elif ch.isdigit():
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(_Token("NUMBER", source[i:j], i))
        elif ch == "\\":
            while j < n and source[j].isalpha():
                j += 1
            name = source[i + 1 : j]
            if not name:
                raise ParseError(i, "backslash without a command name")
            tokens.append(_Token("OP" if name in _NAMED_RELATIONS else "COMMAND", name, i))
        elif ch in _KINDS:
            tokens.append(_Token(_KINDS[ch], ch, i))
        else:
            raise ParseError(i, f"unexpected character {ch!r}")
        i = j
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _lex(source)
        self.pos = 0

    def expect(self, kind: str, what: str) -> None:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(tok.position, f"expected {what}")
        self.pos += 1

    def parse(self) -> MathNode:
        node = self.binary(0)
        tok = self.tokens[self.pos]
        if tok.kind != "END":
            raise ParseError(tok.position, f"unexpected token {tok.value!r}")
        return node

    def binary(self, level: int) -> MathNode:
        """A left-associative chain of the operators of _LEVELS[level]."""
        operators = _LEVELS[level]
        # the last level calls atom directly, so a nesting level costs six frames
        atoms = level == len(_LEVELS) - 1
        tok = self.tokens[self.pos]
        if level == _SIGNED and tok.kind == "OP" and tok.value in operators:
            self.pos += 1
            left = MathNode(tok.value, (self.binary(level + 1),))
        else:
            left = self.atom() if atoms else self.binary(level + 1)
        while True:
            tok = self.tokens[self.pos]
            if operators is None:
                if tok.kind not in _ATOM_STARTS:
                    return left
                label = IMPLICIT_MUL
            elif tok.kind == "OP" and tok.value in operators:
                self.pos += 1
                label = tok.value
            else:
                return left
            right = self.atom() if atoms else self.binary(level + 1)
            left = MathNode(label, (left, right))

    def atom(self) -> MathNode:
        tok = self.tokens[self.pos]
        if tok.kind not in _ATOM_STARTS:
            if tok.kind == "END":
                raise ParseError(tok.position, "missing operand")
            raise ParseError(tok.position, f"missing operand before {tok.value!r}")
        self.pos += 1
        if tok.kind in _CLOSERS:
            inner = self.binary(0)
            self.expect(*_CLOSERS[tok.kind])
            return inner
        if tok.kind == "COMMAND" and tok.value == "frac":
            self.expect("LBRACE", "'{' after \\frac")
            numerator = self.binary(0)
            self.expect("RBRACE", "'}' closing the numerator")
            self.expect("LBRACE", "'{' before the denominator")
            denominator = self.binary(0)
            self.expect("RBRACE", "'}' closing the denominator")
            return MathNode("frac", (numerator, denominator))
        # a symbol, a number, or any other command as an opaque leaf
        return MathNode(tok.value)


def parse_expression(source: str) -> MathTree:
    """Parse one expression; raises ParseError with the offending position.

    The parser recurses once per nesting level, so an expression nested
    deeper than the interpreter's recursion limit allows is rejected at the
    token the parser had reached.
    """
    if not source.strip():
        raise ParseError(0, "empty expression")
    parser = _Parser(source)
    try:
        return MathTree(parser.parse())
    except RecursionError:
        position = parser.tokens[parser.pos].position
        raise ParseError(position, "expression nested too deeply") from None


def path_multiset(tree: MathTree) -> Counter:
    """Multiset of root-to-node label paths, each cut to PATH_DEPTH labels."""
    counts: Counter = Counter()
    stack = [(tree.root, (tree.root.label,))]
    while stack:
        node, path = stack.pop()
        counts[path] += 1
        for child in node.children:
            if len(path) < PATH_DEPTH:
                stack.append((child, path + (child.label,)))
            else:
                stack.append((child, path))
    return counts


def tree_similarity(a: MathTree, b: MathTree) -> float:
    """Dice overlap of the two path multisets; 1.0 iff the multisets agree."""
    pa, pb = path_multiset(a), path_multiset(b)
    return 2.0 * sum((pa & pb).values()) / (pa.total() + pb.total())
