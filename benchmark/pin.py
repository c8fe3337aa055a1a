"""Rewrite expected.json: the outcome digest of every query of every workload at the default seed.

Run from the repository root, only when a change is meant to alter outputs:

    python3 benchmark/pin.py
"""

from __future__ import annotations

import json
import shutil

import run
import worker  # imports mathgloss from the checkout's src/
from mathgloss import MathGlossError, Query, describe
from corpusgen import read_queries
from workloads import WORKLOADS


def pin_part(name: str, part: int, part_dir) -> list[str]:
    config = worker.make_config(name, part_dir)
    checker = worker.Checker(config)
    for index, q in enumerate(read_queries(part_dir / "queries.jsonl")):
        try:
            description, trace = describe(Query.parse(q["expr"], q["context"]), config)
        except MathGlossError as exc:
            checker.add((part, index), failure=exc)
        else:
            checker.add((part, index), description, trace)
    if checker.problems:
        raise SystemExit(f"{name}: " + "; ".join(checker.problems))
    return [checker.digests[i] for i in sorted(checker.digests)]


def pin_workload(name: str) -> list[list[str]]:
    """Digests of every query, one list per corpus part."""
    data_dir = run.ROOT / ".bench_build" / "mathgloss-bench" / f"pin-{name}"
    try:
        return [pin_part(name, part, part_dir) for part, part_dir
                in enumerate(run.generate_inputs(name, run.DEFAULT_SEED, data_dir))]
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def main() -> None:
    pins = {}
    for name in WORKLOADS:
        pins[name] = pin_workload(name)
        print(f"{name}: {sum(map(len, pins[name]))} queries in {len(pins[name])} corpora pinned")
    with open(run.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "workloads": pins}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
