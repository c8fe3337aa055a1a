"""The query-independent half of describe, built once per input and reused.

A CorpusIndex holds everything a query over the same three input files
shares: the vector store, the topic relation graph (a view over the parsed
corpus, graph.corpus) and the ranking index (retrieval.TopicIndex).
corpus_index keeps the last index it built in one module-level slot, keyed by
the SHA-256 digests of the three files' bytes.  Each call hashes the files
again, in chunks, so a rewritten file is always read afresh, whatever its size
or modification time.  The index is built from the very bytes its key was
hashed from: the files are hashed as they are parsed.  At most one index is
alive: the old one is released before its successor is built.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, TypeVar

from .corpus import nogc, read_corpus
from .retrieval import TopicIndex
from .textsim import EmbeddingStore, read_stopwords, read_vectors
from .trg import BuildReport, TopicRelationGraph, build_trg

_CHUNK = 1 << 16
T = TypeVar("T")


@dataclass(frozen=True)
class CorpusIndex:
    digests: tuple[bytes, bytes, bytes]  # corpus, vectors, stopwords
    store: EmbeddingStore
    graph: TopicRelationGraph
    report: BuildReport
    topics: TopicIndex


class _HashingReader(io.RawIOBase):
    """A raw binary stream over an open file that feeds every byte read to a digest."""

    def __init__(self, file: BinaryIO):
        self._file = file
        self.digest = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._file.readinto(buffer)
        self.digest.update(memoryview(buffer)[:count])
        return count


def _read_hashed(path: str | Path, reader: Callable[..., T]) -> tuple[T, bytes]:
    """reader(text stream, path) on the file decoded as open(path, encoding="utf-8")
    would, with the digest of the bytes it read.  Every reader reads to the end."""
    with open(path, "rb", buffering=0) as file:
        raw = _HashingReader(file)
        with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as fh:
            value = reader(fh, path)
    return value, raw.digest.digest()


def _file_digest(path: str | Path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            digest.update(chunk)
    return digest.digest()


@nogc
def build_index(corpus_path: str | Path, vectors_path: str | Path,
                stopwords_path: str | Path) -> CorpusIndex:
    corpus, corpus_digest = _read_hashed(corpus_path, read_corpus)
    (dimension, vectors), vectors_digest = _read_hashed(vectors_path, read_vectors)
    stopwords, stopwords_digest = _read_hashed(stopwords_path, read_stopwords)
    store = EmbeddingStore(dimension=dimension, vectors=vectors, stopwords=stopwords)
    graph, report = build_trg(corpus)
    return CorpusIndex(digests=(corpus_digest, vectors_digest, stopwords_digest),
                       store=store, graph=graph, report=report,
                       topics=TopicIndex(corpus, store))


_last: CorpusIndex | None = None


def corpus_index(corpus_path: str | Path, vectors_path: str | Path,
                 stopwords_path: str | Path) -> CorpusIndex:
    """The index of the three files: the last one built while their bytes are
    unchanged, else a new one."""
    global _last
    paths = (corpus_path, vectors_path, stopwords_path)
    if _last is None or not all(digest == _file_digest(path)
                                for digest, path in zip(_last.digests, paths)):
        _last = None  # release the old index before building its successor
        _last = build_index(*paths)
    return _last
