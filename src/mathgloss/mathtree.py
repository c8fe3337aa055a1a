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

The parser climbs precedence levels (Pratt, 1973): one expr(level) loop per
operand chain, driven by a single operator-to-level table, so a bracket
nesting level costs two Python frames (atom and expr), not one per level.
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

# binding level of each binary operator, loosest first; juxtaposition is
# level 3, and a level-1 operator may also stand as a prefix sign
_LEVEL = {**dict.fromkeys((*"=<>|", *_NAMED_RELATIONS), 0),
          **dict.fromkeys("+-", 1), **dict.fromkeys("*/", 2), **dict.fromkeys("^_", 4)}
_JUXTAPOSED = 3
_SIGNED = 1
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


def _lex(source: str) -> list[tuple[str, str, int]]:
    """(kind, value, position) tokens of source, ending with an END token at
    len(source).  Kinds: SYMBOL NUMBER COMMAND OP LPAREN RPAREN LBRACE RBRACE END."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if ch.isalpha():
            tokens.append(("SYMBOL", ch, i))
        elif ch.isdigit():
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("NUMBER", source[i:j], i))
        elif ch == "\\":
            while j < n and source[j].isalpha():
                j += 1
            name = source[i + 1 : j]
            if not name:
                raise ParseError(i, "backslash without a command name")
            tokens.append(("OP" if name in _NAMED_RELATIONS else "COMMAND", name, i))
        elif ch in _KINDS:
            tokens.append((_KINDS[ch], ch, i))
        else:
            raise ParseError(i, f"unexpected character {ch!r}")
        i = j
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _lex(source)
        self.pos = 0

    def expect(self, kind: str, what: str) -> None:
        tok_kind, _, position = self.tokens[self.pos]
        if tok_kind != kind:
            raise ParseError(position, f"expected {what}")
        self.pos += 1

    def parse(self) -> MathNode:
        node = self.expr(0)
        kind, value, position = self.tokens[self.pos]
        if kind != "END":
            raise ParseError(position, f"unexpected token {value!r}")
        return node

    def expr(self, level: int) -> MathNode:
        """A left-associative chain of operators of level `level` or tighter.

        Precedence climbing: each operand is parsed at one level above its
        operator's, so an operand costs one call whatever its operator's level.
        """
        tokens = self.tokens
        kind, value, _ = tokens[self.pos]
        if level <= _SIGNED and kind == "OP" and _LEVEL[value] == _SIGNED:
            self.pos += 1
            left = MathNode(value, (self.expr(_SIGNED + 1),))
        else:
            left = self.atom()
        while True:
            kind, value, _ = tokens[self.pos]
            if kind == "OP":
                op_level = _LEVEL[value]
                if op_level < level:
                    return left
                self.pos += 1
            elif kind in _ATOM_STARTS and level <= _JUXTAPOSED:
                op_level, value = _JUXTAPOSED, IMPLICIT_MUL
            else:
                return left
            left = MathNode(value, (left, self.expr(op_level + 1)))

    def atom(self) -> MathNode:
        kind, value, position = self.tokens[self.pos]
        if kind not in _ATOM_STARTS:
            if kind == "END":
                raise ParseError(position, "missing operand")
            raise ParseError(position, f"missing operand before {value!r}")
        self.pos += 1
        if kind in _CLOSERS:
            inner = self.expr(0)
            self.expect(*_CLOSERS[kind])
            return inner
        if kind == "COMMAND" and value == "frac":
            self.expect("LBRACE", "'{' after \\frac")
            numerator = self.expr(0)
            self.expect("RBRACE", "'}' closing the numerator")
            self.expect("LBRACE", "'{' before the denominator")
            denominator = self.expr(0)
            self.expect("RBRACE", "'}' closing the denominator")
            return MathNode("frac", (numerator, denominator))
        # a symbol, a number, or any other command as an opaque leaf
        return MathNode(value)


def parse_expression(source: str) -> MathTree:
    """Parse one expression; raises ParseError with the offending position.

    Each nesting level of brackets or fractions costs two frames, so under
    the default recursion limit of 1000 about 490 levels parse (from a
    shallow call stack).  An expression nested deeper is rejected at the
    position of the token the parser had reached.
    """
    if not source.strip():
        raise ParseError(0, "empty expression")
    parser = _Parser(source)
    try:
        return MathTree(parser.parse())
    except RecursionError:
        position = parser.tokens[parser.pos][2]
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
