"""Line-delimited JSON corpus: document records, loading, and tokenization.

Each input line is one object with fields id, title, leading_paragraph,
sentences and math.  Unknown fields are ignored so corpora can carry extra
metadata without breaking older readers.
"""

from __future__ import annotations

import functools
import gc
import json
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, ParamSpec, TextIO, TypeVar

from .errors import DuplicateTitle, EmptyCorpus, MalformedRecord, NotUtf8, ParseError
from .mathtree import MathTree, parse_expression

P = ParamSpec("P")
T = TypeVar("T")


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties.

    Interior punctuation survives, so "cassini's" stays one token.  The
    function is idempotent on its own space-joined output.
    """
    tokens = []
    for raw in text.lower().split():
        # no letter or digit is punctuation, so most words need no stripping
        token = raw if raw[0].isalnum() and raw[-1].isalnum() else _strip_punct(raw)
        if token:
            tokens.append(token)
    return tokens


@dataclass(frozen=True, slots=True)
class Sentence:
    """Text and position; tokens are computed on access, so only pools pay for them."""
    text: str
    position: int

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(tokenize(self.text))


@dataclass(frozen=True, slots=True)
class MathItem:
    source: str
    tree: MathTree
    context: str
    cites: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Document:
    id: str
    title: str
    leading_paragraph: str
    sentences: tuple[Sentence, ...]
    math_items: tuple[MathItem, ...]


@dataclass
class Corpus:
    """Documents keyed by title, in file order."""

    documents: dict[str, Document]

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents.values())

    def __contains__(self, title: str) -> bool:
        return title in self.documents

    def get(self, title: str) -> Document:
        return self.documents[title]

    @property
    def titles(self) -> list[str]:
        return list(self.documents)


_REQUIRED = ("id", "title", "leading_paragraph", "sentences", "math")
_MATH_REQUIRED = ("source", "context", "cites")


def _parse_math_item(raw: dict, line_number: int, index: int) -> MathItem:
    for key in _MATH_REQUIRED:
        if key not in raw:
            raise MalformedRecord(line_number, f"math item {index} missing field {key!r}")
    source, context, cites = raw["source"], raw["context"], raw["cites"]
    if not isinstance(source, str) or not isinstance(context, str):
        raise MalformedRecord(line_number, f"math item {index}: source and context must be strings")
    if not isinstance(cites, list) or any(not isinstance(c, str) for c in cites):
        raise MalformedRecord(line_number, f"math item {index}: cites must be a list of strings")
    if any(not c for c in cites):
        raise MalformedRecord(line_number, f"math item {index}: empty citation title")
    try:
        tree = parse_expression(source)
    except ParseError as exc:
        raise MalformedRecord(line_number, f"math item {index}: {source!r}: {exc}") from exc
    return MathItem(source=source, tree=tree, context=context, cites=tuple(cites))


def _parse_record(raw: object, line_number: int) -> Document:
    if not isinstance(raw, dict):
        raise MalformedRecord(line_number, "record is not a JSON object")
    for key in _REQUIRED:
        if key not in raw:
            raise MalformedRecord(line_number, f"missing field {key!r}")
    doc_id, title = raw["id"], raw["title"]
    if not isinstance(doc_id, str) or not doc_id:
        raise MalformedRecord(line_number, "id must be a non-empty string")
    if not isinstance(title, str) or not title:
        raise MalformedRecord(line_number, "title must be a non-empty string")
    lead = raw["leading_paragraph"]
    if not isinstance(lead, str):
        raise MalformedRecord(line_number, "leading_paragraph must be a string")
    if not isinstance(raw["sentences"], list) or any(not isinstance(s, str) for s in raw["sentences"]):
        raise MalformedRecord(line_number, "sentences must be a list of strings")
    if raw["sentences"] and not lead:
        raise MalformedRecord(line_number, "leading_paragraph empty but sentences present")
    if not isinstance(raw["math"], list):
        raise MalformedRecord(line_number, "math must be a list")
    sentences = tuple(Sentence(text, i) for i, text in enumerate(raw["sentences"]))
    math_items = []
    for i, m in enumerate(raw["math"]):
        if not isinstance(m, dict):
            raise MalformedRecord(line_number, f"math item {i} is not an object")
        math_items.append(_parse_math_item(m, line_number, i))
    return Document(id=doc_id, title=title, leading_paragraph=lead,
                    sentences=sentences, math_items=tuple(math_items))


def _reject_lone_surrogates(doc: Document, line_number: int) -> None:
    """A string with half a surrogate pair cannot be written out as UTF-8."""
    text = "\n".join([doc.id, doc.title, doc.leading_paragraph,
                      *(s.text for s in doc.sentences),
                      *(t for m in doc.math_items for t in (m.source, m.context, *m.cites))])
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        surrogate = ord(text[exc.start])
        raise MalformedRecord(line_number, f"lone surrogate \\u{surrogate:04x} in a string") from exc


def numbered_lines(fh: TextIO, name: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) pairs of a text stream; bytes that are not UTF-8 are a data error."""
    try:
        yield from enumerate(fh, 1)
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{name}: not UTF-8 text ({exc.reason})") from exc


def nogc(func: Callable[P, T]) -> Callable[P, T]:
    """func with the cyclic garbage collector off for the call and back as it
    was found afterwards, also when func raises; nested uses change nothing.

    Building a corpus or an index makes hundreds of thousands of container
    objects and no reference cycles (frozen slotted records and tuples), so
    the collector's repeated passes over the growing heap would reclaim nothing.
    """
    @functools.wraps(func)
    def without_gc(*args: P.args, **kwargs: P.kwargs) -> T:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return without_gc


def load_corpus(path: str | Path) -> Corpus:
    """Read one document per line; reject malformed records with the line number."""
    with open(path, encoding="utf-8") as fh:
        return read_corpus(fh, path)


@nogc
def read_corpus(fh: TextIO, name: str | Path) -> Corpus:
    """load_corpus on an open text stream; name stands for the file in messages."""
    documents: dict[str, Document] = {}
    seen_ids: set[str] = set()
    for line_number, line in numbered_lines(fh, name):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(line_number, f"invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer past Python's digit limit
            raise MalformedRecord(line_number, "invalid JSON: integer has too many digits") from exc
        except RecursionError as exc:
            raise MalformedRecord(line_number, "invalid JSON: nested too deeply") from exc
        doc = _parse_record(raw, line_number)
        if "\\u" in line:  # only a \u escape can bring in a lone surrogate
            _reject_lone_surrogates(doc, line_number)
        if doc.title in documents:
            raise DuplicateTitle(doc.title)
        if doc.id in seen_ids:
            raise MalformedRecord(line_number, f"duplicate document id {doc.id!r}")
        seen_ids.add(doc.id)
        documents[doc.title] = doc
    if not documents:
        raise EmptyCorpus(f"no records in {name}")
    return Corpus(documents)

