"""Parsing of a small LaTeX-flavoured expression language into labelled trees,
plus a path-multiset similarity between two trees.

The grammar is deliberately narrow: single-letter identifiers, integer
literals, binary + - * /, superscript/subscript, fractions, relations
(= < > | \\le \\ge \\ne), grouping with braces or parentheses, and a prefix
minus/plus so forms such as (-1)^{n-1} parse.  Any unrecognised \\command
becomes a leaf symbol carrying the command name.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ParseError

# one label path is kept per node, cut off after this many labels
PATH_DEPTH = 3

IMPLICIT_MUL = "·"

_RELATIONS = {"=", "<", ">", "|", "le", "ge", "ne"}
_ADDITIVE = {"+", "-"}
_MULTIPLICATIVE = {"*", "/"}
_POSTFIX = {"^", "_"}


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
        tok = parser.peek()
        position = tok.position if tok is not None else len(source)
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
    return path_similarity(path_multiset(a), path_multiset(b))


def path_similarity(pa: Counter, pb: Counter) -> float:
    """tree_similarity of the trees whose path multisets these are."""
    shared = sum((pa & pb).values())
    total = sum(pa.values()) + sum(pb.values())
    return 2.0 * shared / total
