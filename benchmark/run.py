"""Closed-loop benchmark of mathgloss: one caller issues queries back to back.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload wide-corpus --seed 0 --seconds 40 --trace 0

The run generates its workload's corpora from the seed (corpusgen.py, in a
child process), then hands the measuring to worker processes started one
after another.  The workers share the seconds: each one's share covers its
start-up, its timed one-off per-corpus calls (set-up) and its loop of public
`describe(Query.parse(expr, context), PipelineConfig(...))` calls, which
continues the run's query sequence where the previous worker stopped.  Each
query is timed against a fixed reference task (reference.py), which cancels
the machine's drifting speed.  Their records are pooled.  With --trace 1 a
single worker also runs the traced stage-by-stage composition (tracing.py)
and the run reports per-layer metrics instead.  Every answer is checked
(outcome.py); the last line of standard output is one JSON object with the
results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import outcome
from stats import QueryRecord, median, setup_seconds, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEFAULT_SEED = 0
# Each worker times at least one set-up, so the set-ups of several workers,
# spread over the run, give setup_s its median.  Every worker also pays its
# start-up and set-up out of the run's seconds, so fewer workers leave more of
# the run to queries.
WORKERS = 4
# Python randomizes string hashing per process, which changes the dict and set
# layouts of the corpus strings and moves timings by up to a quarter from one
# process to the next.  Outputs do not depend on it, so every worker measures
# under the same hash seed.
HASH_SEED = "0"


def load_pins(workload: str, seed: int) -> dict[tuple[int, int], str]:
    """Pinned digests by (corpus part, query index)."""
    if seed != DEFAULT_SEED:
        return {}
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        parts = json.load(fh)["workloads"].get(workload, [])
    return {(part, i): d for part, pins in enumerate(parts) for i, d in enumerate(pins)}


def generate_inputs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write each of the workload's corpora for the seed; return their directories."""
    subprocess.run([sys.executable, str(HERE / "corpusgen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(directory)], check=True)
    return [directory / f"part{part}" for part in range(WORKLOADS[workload].corpora)]


def run_worker(workload: str, part_dirs: list[Path], start: int, seconds: float,
               spans: Path | None = None) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--start", str(start), "--seconds", repr(seconds),
               "--data", *map(str, part_dirs)]
    if spans is not None:
        command += ["--trace", "1", "--spans", str(spans)]
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True,
                          env={**os.environ, "PYTHONHASHSEED": HASH_SEED})
    result = json.loads(done.stdout.splitlines()[-1])
    result["process_s"] = time.perf_counter() - started
    return result


def run(workload: str, seed: int, seconds: float, traced: bool, data_dir: Path) -> dict:
    part_dirs = generate_inputs(workload, seed, data_dir)
    if traced:
        spans = data_dir.parent / f"spans-{workload}-{seed}.jsonl"
        results = [run_worker(workload, part_dirs, 0, seconds, spans)]
    else:
        results, attempted, used = [], 0, 0.0
        for i in range(WORKERS):
            # later workers absorb the start-up of every worker and the overrun
            # of earlier ones' last queries
            share = max(seconds - used, 0.0) / (WORKERS - i)
            results.append(run_worker(workload, part_dirs, attempted, share))
            attempted += len(results[-1]["records"])
            used += results[-1]["process_s"]

    records = [QueryRecord(*record) for r in results for record in r["records"]]
    summary = summarize(records)
    digests: dict[tuple[int, int], str] = {}
    problems = [p for r in results for p in r["problems"]]
    for r in results:
        theirs = {(part, index): d for part, index, d in r["digests"]}
        problems += outcome.check_against(theirs, digests, "another worker's")
        digests.update(theirs)
    problems += outcome.check_pins(digests, load_pins(workload, seed))
    print(f"# {workload} seed {seed}: {summary.attempted} queries in {len(results)} "
          f"processes ({len(digests)} distinct), failed_share {summary.failed_share:.4f} "
          f"({summary.failed}/{summary.attempted}), digest "
          f"{outcome.combined_digest([digests[i] for i in sorted(digests)])}", file=sys.stderr)
    if traced:
        metrics = results[0]["layers"]
    else:
        setups = [(t, ref) for r in results for t, ref in r["setup_s"]]
        metrics = {
            "setup_s": (setup_seconds(setups), "s"),
            "query_p50_ref": (summary.query_p50_ref, "ref"),
            "queries_per_ref": (summary.queries_per_ref, "1/ref"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
        }
        references = [r.reference_s for r in records]
        print(f"# setup_s median of {len(setups)} set-ups, query_p50_ref median of "
              f"{summary.attempted} queries; wall clock: set-up "
              f"{median(t for t, _ in setups):.4f} s, query_p50_s {summary.query_p50_s:.4f}, "
              f"queries_per_s {summary.queries_per_s:.4f}, reference task "
              f"{min(references):.4f}-{max(references):.4f} s", file=sys.stderr)
    for problem in problems:
        print(f"# incorrect: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "mathgloss" / "__init__.py").is_file():
        raise SystemExit(f"error: no mathgloss source under {ROOT / 'src'}; "
                         "run from the repository root")
    data_dir = ROOT / ".bench_build" / "mathgloss-bench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
