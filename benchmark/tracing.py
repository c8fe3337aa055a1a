"""The traced run: describe's stages composed one by one, with a span around each call.

`traced_describe` makes the same public calls in the same order as
`mathgloss.describe`, so its outputs must be bit-identical (worker.py checks
this).  Spans are kept in memory and written out when the run ends.  The
layer counts are the benchmark's own work: they are taken inside the query
span, under a span of their own that is subtracted from it.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from mathgloss import (InstanceTooLarge, Query, build_instance, build_trg, extract_concepts,
                       extract_timeline, load_corpus, load_vectors, order_sentences,
                       rank_topics, select_relevant, solve_ilp)
from mathgloss.mathtree import path_multiset
from mathgloss.pipeline import Trace

from stats import median

QUERY_SPAN = "query"
COUNT_SPAN = "bench.count"
STAGES = ("retrieval.parse", "corpus.load", "textsim.load", "retrieval.rank", "trg.build",
          "selector.select", "selector.timeline", "summarizer.concepts",
          "summarizer.instance", "summarizer.solve", "summarizer.order")


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    query_id: int
    name: str
    start_ns: int
    end_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._next_id = 0

    def span(self, name: str, query_id: int, parent_id: int | None = None) -> "_OpenSpan":
        self._next_id += 1
        return _OpenSpan(self, self._next_id, parent_id, query_id, name)

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)))
                fh.write("\n")


class _OpenSpan:
    def __init__(self, tracer: Tracer, span_id: int, parent_id: int | None,
                 query_id: int, name: str):
        self.tracer, self.span_id, self.parent_id = tracer, span_id, parent_id
        self.query_id, self.name = query_id, name

    def __enter__(self) -> "_OpenSpan":
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        end_ns = time.perf_counter_ns()  # on a raise too: the span ends where it failed
        self.tracer.spans.append(Span(self.span_id, self.parent_id, self.query_id,
                                      self.name, self.start_ns, end_ns))


def traced_describe(expr: str, context: str, config, tracer: Tracer, query_id: int,
                    counts: "LayerCounts"):
    """describe(Query.parse(expr, context), config) with one span per stage call."""
    with tracer.span(QUERY_SPAN, query_id) as root:
        # the stage outputs are freed when _staged returns, inside the query span,
        # as describe's are freed inside the describe call
        return _staged(expr, context, config, tracer, query_id, root.span_id, counts)


def _staged(expr, context, config, tracer, query_id, root_id, counts):
    def stage(name):
        return tracer.span(name, query_id, root_id)

    query = corpus = store = topics = graph = documents = pool = concepts = None
    failure_nodes = None
    try:
        with stage("retrieval.parse"):
            query = Query.parse(expr, context)
        with stage("corpus.load"):
            corpus = load_corpus(config.corpus_path)
        with stage("textsim.load"):
            store = load_vectors(config.vectors_path, config.stopwords_path)
        with stage("retrieval.rank"):
            topics = rank_topics(query, corpus, store, k=config.k_topics)
        with stage("trg.build"):
            graph, report = build_trg(corpus)
        with stage("selector.select"):
            documents = select_relevant(graph, topics, query, store)
        with stage("selector.timeline"):
            timeline = extract_timeline(graph, topics, documents)
        ordered_docs = [corpus.get(td.document) for td in timeline]
        with stage("summarizer.concepts"):
            pool, concepts = extract_concepts(ordered_docs, query, store)
        with stage("summarizer.instance"):
            instance = build_instance(pool, concepts, config.max_words,
                                      config.max_sentences, store.stopwords)
        try:
            with stage("summarizer.solve"):
                selection = solve_ilp(instance, max_nodes=config.solver_max_nodes)
        except InstanceTooLarge as exc:
            failure_nodes = exc.nodes
            raise
        with stage("summarizer.order"):
            description = order_sentences(selection, pool, timeline)
        trace = Trace(
            topics=topics,
            documents=[d.title for d in documents],
            timeline=timeline,
            graph_report=report,
            pool_size=len(pool),
            concept_count=len(concepts),
            budget=config.max_words,
            sentence_cap=config.max_sentences,
            selected=selection.sentences,
            objective=selection.objective,
        )
        return description, trace
    finally:
        with stage(COUNT_SPAN):
            counts.record(query, corpus, store, graph, topics, documents, pool, concepts,
                          failure_nodes)


class LayerCounts:
    """Per-query counts at the layer boundaries."""

    def __init__(self):
        self._paths: dict[str, frozenset] = {}  # expression source -> its depth-3 label paths
        self.per_query: list[dict] = []
        self.failure_nodes: list[int] = []
        self.fixed: dict = {}

    def _path_set(self, source: str, tree) -> frozenset:
        paths = self._paths.get(source)
        if paths is None:
            paths = self._paths[source] = frozenset(path_multiset(tree))
        return paths

    def record(self, query, corpus, store, graph, topics, documents, pool, concepts,
               failure_nodes) -> None:
        """Count what one query's stages produced; None marks a stage not reached."""
        if not self.fixed and graph is not None:
            self.fixed = {
                "corpus.documents": len(corpus),
                "corpus.sentences": sum(len(d.sentences) for d in corpus),
                "corpus.math_items": sum(len(d.math_items) for d in corpus),
                "textsim.vocabulary": len(store.vectors),
                "trg.edges": len(graph.edges),
            }
        counts = {}
        if documents is not None:
            query_paths = frozenset(path_multiset(query.expression))
            pairs = nonzero = 0
            for doc in corpus:  # rank_topics scores every math item of every document
                for item in doc.math_items:
                    pairs += 1
                    nonzero += not query_paths.isdisjoint(self._path_set(item.source, item.tree))
            edges = 0
            for topic in topics:  # select_relevant scores each in- and outlink once
                if topic.title not in graph:
                    continue
                for edge in graph.inlinks(topic.title) + graph.outlinks(topic.title):
                    edges += 1
                    nonzero += not query_paths.isdisjoint(
                        self._path_set(edge.expression_source, edge.expression))
            counts.update({"mathtree.dice_pairs": pairs + edges,
                           "mathtree.dice_nonzero": nonzero,
                           "selector.edges_scored": edges,
                           "selector.documents": len(documents)})
        if pool is not None:
            counts.update({"summarizer.pool_sentences": len(pool),
                           "summarizer.concepts": len(concepts)})
        if failure_nodes is not None:
            self.failure_nodes.append(failure_nodes)
        self.per_query.append(counts)


def layer_metrics(tracer: Tracer, counts: LayerCounts, untraced_s: list[float]) -> dict:
    """Per-layer metrics: medians over the traced queries of stage times and counts.

    untraced_s holds describe's time for each traced query, in the same order:
    the tracing overhead is the median of the per-query differences.
    """
    roots: dict[int, Span] = {}
    children: dict[int, dict[str, float]] = {}
    for span in tracer.spans:
        if span.name == QUERY_SPAN:
            roots[span.query_id] = span
        else:
            children.setdefault(span.query_id, {})[span.name] = span.seconds
    query_s, self_s = [], []
    for qid, root in sorted(roots.items()):
        stages = children.get(qid, {})
        query_s.append(root.seconds - stages.get(COUNT_SPAN, 0.0))
        self_s.append(root.seconds - sum(stages.values()))
    metrics: dict[str, tuple[float, str]] = {}
    for name in STAGES:
        times = [stages[name] for stages in children.values() if name in stages]
        metrics[name + "_s"] = (median(times) if times else 0.0, "s")
    metrics["pipeline.self_s"] = (median(self_s), "s")
    metrics["pipeline.trace_overhead_s"] = (
        median(traced - untraced for traced, untraced in zip(query_s, untraced_s, strict=True)),
        "s")
    for key, value in counts.fixed.items():
        metrics[key] = (value, "count")
    for key in ("mathtree.dice_pairs", "selector.edges_scored", "selector.documents",
                "summarizer.pool_sentences", "summarizer.concepts"):
        values = [c[key] for c in counts.per_query if key in c]
        metrics[key] = (median(values) if values else 0, "count")
    pairs = sum(c.get("mathtree.dice_pairs", 0) for c in counts.per_query)
    nonzero = sum(c.get("mathtree.dice_nonzero", 0) for c in counts.per_query)
    metrics["mathtree.dice_nonzero_share"] = (nonzero / pairs if pairs else 0.0, "ratio")
    metrics["summarizer.solve_failed"] = (len(counts.failure_nodes), "count")
    metrics["summarizer.nodes_at_failure"] = (
        median(counts.failure_nodes) if counts.failure_nodes else 0, "count")
    return metrics
