"""End-to-end description construction and the command-line front end.

Stages: load corpus and vectors, rank topics for the query, build the
citation graph, select documents, extract the timeline, mine bigram concepts,
solve the coverage program, and order the chosen sentences.

The query-independent stages come from a cached index; index.py describes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import MathGlossError, ParseError, QueryParseError
from .index import corpus_index
from .retrieval import Query, Topic
from .selector import TimestampedDoc, extract_timeline, select_documents
from .summarizer import (DEFAULT_MAX_NODES, Description, build_instance,
                         extract_concepts, order_sentences, solve_ilp)
from .trg import BuildReport

DEFAULT_TOPICS = 3
DEFAULT_MAX_WORDS = 130
DEFAULT_MAX_SENTENCES = 5

# every character str.splitlines breaks at, escaped so an error stays on one line
_LINE_BREAKS = str.maketrans({ch: ch.encode("unicode_escape").decode("ascii")
                              for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


@dataclass
class PipelineConfig:
    corpus_path: str | Path
    vectors_path: str | Path
    stopwords_path: str | Path
    k_topics: int = DEFAULT_TOPICS
    max_words: int = DEFAULT_MAX_WORDS
    max_sentences: int = DEFAULT_MAX_SENTENCES
    solver_max_nodes: int = DEFAULT_MAX_NODES


@dataclass
class Trace:
    topics: list[Topic]
    documents: list[str]
    timeline: list[TimestampedDoc]
    graph_report: BuildReport
    pool_size: int
    concept_count: int
    budget: int
    sentence_cap: int
    selected: tuple[int, ...]
    objective: float

    def to_dict(self) -> dict:
        """The trace as JSON-ready values; --json and --trace both print this."""
        return {
            "topics": [asdict(t) for t in self.topics],
            "documents": list(self.documents),
            "timeline": [asdict(td) for td in self.timeline],
            "graph": asdict(self.graph_report),
            "pool_size": self.pool_size,
            "concept_count": self.concept_count,
            "budget": self.budget,
            "sentence_cap": self.sentence_cap,
            "selected": list(self.selected),
            "objective": self.objective,
        }


def describe(query: Query, config: PipelineConfig) -> tuple[Description, Trace]:
    """Run every stage for one query and return the description with its trace.

    The query-independent stages come from the cached index of the three input
    files, which is rebuilt only when their bytes change.
    """
    index = corpus_index(config.corpus_path, config.vectors_path, config.stopwords_path)
    store, graph = index.store, index.graph
    match = index.topics.match(query)
    topics = index.topics.rank(match, config.k_topics)
    documents = select_documents(index.topics, graph, topics, match)
    timeline = extract_timeline(graph, topics, documents)
    ordered_docs = [graph.document(td.document) for td in timeline]
    pool, concepts = extract_concepts(ordered_docs, query, store)
    instance = build_instance(pool, concepts, config.max_words,
                              config.max_sentences, store.stopwords)
    selection = solve_ilp(instance, max_nodes=config.solver_max_nodes)
    description = order_sentences(selection, pool, timeline)
    trace = Trace(
        topics=topics,
        documents=[d.title for d in documents],
        timeline=timeline,
        graph_report=index.report,
        pool_size=len(pool),
        concept_count=len(concepts),
        budget=config.max_words,
        sentence_cap=config.max_sentences,
        selected=selection.sentences,
        objective=selection.objective,
    )
    return description, trace


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a non-number as "invalid int value"
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="mathgloss",
                     description="Construct a short textual description for a math expression.")
    parser.add_argument("--corpus", required=True, help="corpus file, one JSON document per line")
    parser.add_argument("--vectors", required=True, help="word vector file")
    parser.add_argument("--stopwords", required=True, help="stopword file, one token per line")
    parser.add_argument("--expr", required=True, help="query expression")
    parser.add_argument("--context", required=True, help="query context text")
    parser.add_argument("--k", type=_int_at_least(1), default=DEFAULT_TOPICS,
                        help="number of topics")
    parser.add_argument("--max-words", type=_int_at_least(0), default=DEFAULT_MAX_WORDS,
                        help="word budget for the description")
    parser.add_argument("--max-sentences", type=_int_at_least(0),
                        default=DEFAULT_MAX_SENTENCES,
                        help="sentence cap for the description")
    parser.add_argument("--trace", action="store_true", help="report intermediate stages")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit JSON instead of plain text")
    return parser


def cli_run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 1
    config = PipelineConfig(
        corpus_path=args.corpus,
        vectors_path=args.vectors,
        stopwords_path=args.stopwords,
        k_topics=args.k,
        max_words=args.max_words,
        max_sentences=args.max_sentences,
    )
    try:
        for flag in ("corpus", "vectors", "stopwords"):  # open() would raise ValueError
            if "\0" in getattr(args, flag):
                raise OSError(f"--{flag}: file name holds a null byte")
        try:
            query = Query.parse(args.expr, args.context)
        except ParseError as exc:
            raise QueryParseError(f"cannot parse --expr: {exc}") from exc
        description, trace = describe(query, config)
        if args.as_json:
            payload = {"description": description.texts, "trace": trace.to_dict()}
            print(json.dumps(payload, ensure_ascii=False, allow_nan=False))
        else:
            for text in description.texts:
                print(text)
            if args.trace:  # one line per entry: ensure_ascii escapes every line break
                for key, value in trace.to_dict().items():
                    print(f"{key}: {json.dumps(value)}", file=sys.stderr)
        sys.stdout.flush()  # a closed pipe raises BrokenPipeError here, not at exit
    except (MathGlossError, OSError, UnicodeEncodeError) as exc:  # open() on a lone surrogate
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    code = cli_run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # what a closed pipe left unwritten would fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
