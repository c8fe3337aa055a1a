"""One measuring process of a benchmark run: set-up, then queries back to back.

run.py starts several of these in turn and pools what they print; a worker is
not meant to be run by hand.  A worker times set-ups and queries, both within
its --seconds and each against the reference task (reference.py).  With
--trace 1 each query runs twice in a row, through `describe` and then
through the traced stage-by-stage composition (tracing.py), and the worker
also reports per-layer metrics.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SETUP_SECONDS = 0.5   # set-ups repeat while they have taken less than this, at most SETUP_MAX
SETUP_MAX = 5
REFERENCE_EVERY = 1.0  # most seconds between timings of the reference task in the query loop


def _import_program():
    """Import mathgloss from the checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "mathgloss" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: no mathgloss source at {package}; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import mathgloss
    if Path(mathgloss.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported mathgloss from {mathgloss.__file__}, not {package}")


_import_program()

from mathgloss import MathGlossError, Query, build_trg, describe, load_corpus, load_vectors  # noqa: E402
from mathgloss.pipeline import PipelineConfig  # noqa: E402

import outcome  # noqa: E402
from corpusgen import read_queries  # noqa: E402
from reference import time_reference  # noqa: E402
from stats import QueryRecord  # noqa: E402
from tracing import LayerCounts, Tracer, layer_metrics, traced_describe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def make_config(workload: str, data_dir: Path) -> PipelineConfig:
    return PipelineConfig(corpus_path=data_dir / "corpus.jsonl",
                          vectors_path=data_dir / "vectors.txt",
                          stopwords_path=data_dir / "stopwords.txt",
                          **WORKLOADS[workload].settings)


def measure_setup(config: PipelineConfig) -> list[tuple[float, float]]:
    """Wall times of the one-off per-corpus calls, repeated while they are quick,
    each with its reference time: the mean of the reference task's timings
    just before and just after it."""
    times, references = [], [time_reference()]
    started = time.perf_counter()
    while not times or (len(times) < SETUP_MAX
                        and time.perf_counter() - started < SETUP_SECONDS):
        gc.collect()
        t0 = time.perf_counter()
        corpus = load_corpus(config.corpus_path)
        store = load_vectors(config.vectors_path, config.stopwords_path)
        graph, _ = build_trg(corpus)
        times.append(time.perf_counter() - t0)
        del corpus, store, graph  # one copy alive at a time, as in a real set-up
        references.append(time_reference())
    return [(t, (before + after) / 2)
            for t, before, after in zip(times, references, references[1:])]


class Checker:
    """Collects every outcome's digest and every correctness problem."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.digests: dict[tuple[int, int], str] = {}  # by (corpus part, query index)
        self.problems: list[str] = []

    def add(self, key: tuple[int, int], description=None, trace=None,
            failure: Exception | None = None) -> None:
        if failure is not None:
            name = type(failure).__name__
            digest = outcome.failed_digest(name)
            if name != outcome.EXPECTED_FAILURE:
                self.problems.append(f"query {key}: unexpected {name}: {failure}")
        else:
            digest = outcome.solved_digest(description.texts, trace.selected, trace.objective)
            self.problems += [f"query {key}: {p}" for p in outcome.check_solved(
                description.texts, trace.selected, description.word_count, self.config)]
        first = self.digests.setdefault(key, digest)
        if first != digest:
            self.problems.append(f"query {key}: repeat gave {digest}, first run {first}")


def position(parts: list[list[dict]], g: int) -> tuple[int, int]:
    """The (part, query index) at position g of a run's query sequence.

    The sequence takes the parts in turn, so every stretch of it mixes all
    the corpora, and cycles through each part's query list.
    """
    part = g % len(parts)
    return part, (g // len(parts)) % len(parts[part])


def query_loop(parts: list[list[dict]], configs: list[PipelineConfig], start: int,
               seconds: float, runs) -> list[list[QueryRecord]]:
    """Issue queries back to back from sequence position `start` until `seconds` pass.

    `runs` holds (run_one, checker) pairs.  Each query goes through every run
    in turn, so the runs of one query meet the same machine state.  The
    reference task is timed before the first query, before any query that
    starts REFERENCE_EVERY seconds or more after the last timing, and once
    after the loop.  A query's reference time is the mean of the timings just
    before and just after it: the machine's speed drifts even within a second.
    """
    timed: list[list[tuple[float, str | None, int]]] = [[] for _ in runs]
    references: list[float] = []
    started = time.perf_counter()
    issued = 0
    referenced_at = None
    while not issued or time.perf_counter() - started < seconds:
        part, index = position(parts, start + issued)
        q, config = parts[part][index], configs[part]
        issued += 1
        if referenced_at is None or time.perf_counter() - referenced_at >= REFERENCE_EVERY:
            references.append(time_reference())
            referenced_at = time.perf_counter()
        for (run_one, checker), out in zip(runs, timed):
            # every query starts from a collected heap, as a one-shot CLI call
            # does; otherwise how many full collections fall inside a query
            # depends on the queries before it
            gc.collect()
            t0 = time.perf_counter()
            try:
                description, trace = run_one(q["expr"], q["context"], config)
            except MathGlossError as exc:
                out.append((time.perf_counter() - t0, type(exc).__name__, len(references)))
                checker.add((part, index), failure=exc)
            else:
                out.append((time.perf_counter() - t0, None, len(references)))
                checker.add((part, index), description, trace)
    references.append(time_reference())
    return [[QueryRecord(seconds_, failure, (references[after - 1] + references[after]) / 2)
             for seconds_, failure, after in out] for out in timed]


def main() -> None:
    parser = argparse.ArgumentParser(description="One measuring process of run.py.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True, type=Path, nargs="+",
                        help="directories of generated inputs, one per corpus part")
    parser.add_argument("--start", type=int, default=0, help="first position in the query sequence")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where --trace 1 writes its spans")
    args = parser.parse_args()
    configs = [make_config(args.workload, d) for d in args.data]
    parts = [read_queries(d / "queries.jsonl") for d in args.data]
    started = time.perf_counter()
    setups = measure_setup(configs[position(parts, args.start)[0]])

    # every part has the same settings, so one config serves the constraint checks
    checker = Checker(configs[0])
    runs = [(lambda expr, context, config: describe(Query.parse(expr, context), config), checker)]
    if args.trace:
        tracer, counts = Tracer(), LayerCounts()
        attempts = itertools.count(1)  # query ids: one per attempt, repeats included
        traced_checker = Checker(configs[0])
        runs.append((lambda expr, context, config: traced_describe(
            expr, context, config, tracer, next(attempts), counts), traced_checker))
    loop_seconds = args.seconds - (time.perf_counter() - started)
    records, *_ = query_loop(parts, configs, args.start, loop_seconds, runs)
    result = {
        "setup_s": setups,
        "records": [[r.seconds, r.failure, r.reference_s] for r in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        checker.problems += traced_checker.problems
        checker.problems += outcome.check_against(traced_checker.digests, checker.digests,
                                                  "describe's")
        tracer.write(args.spans)
        print(f"# {len(tracer.spans)} spans written to {args.spans}", file=sys.stderr)
        result["layers"] = layer_metrics(tracer, counts, [r.seconds for r in records])
    result["digests"] = [[part, index, d] for (part, index), d in checker.digests.items()]
    result["problems"] = checker.problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
