"""The benchmark's workloads: the corpus each one generates and the pipeline settings it runs.

Each workload stresses a different layer, because the exact coverage program
makes the cost depend on the shape of the query (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from corpusgen import CorpusSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    # PipelineConfig fields this workload sets; every other field keeps the
    # pipeline's default, as for a user of the CLI
    settings: dict = field(default_factory=dict)
    # independent corpora a run generates from its seed; the measuring
    # processes take them in turn.  A small corpus's cost depends on its
    # seed, and several corpora per run average that out.
    corpora: int = 1


WORKLOADS = {w.name: w for w in (
    Workload(
        name="wide-corpus",
        why="10k short documents with hub topics and small pools: load, graph, "
            "ranking and selection do the work, the solver almost none",
        # k=3 topics keep at most 9 documents of at most 2 sentences: pools <= 18
        corpus=CorpusSpec(documents=10_000, sentences=(1, 2), words=(6, 14),
                          math_items=(1, 2), no_math_share=0.25, cites=(0, 2),
                          queries=24),
    ),
    Workload(
        name="small-pools",
        why="16 corpora of 300 documents and pools of at most 18 sentences, all solved: "
            "the exact solver dominates while load and rank take tens of ms",
        # k=2 topics keep at most 6 documents of at most 3 sentences: pools <= 18,
        # inside the solver's exhaustive depth-first limit of 20
        # most topics cite and are cited, so pools usually fill up towards 18
        corpus=CorpusSpec(documents=300, sentences=(2, 3), words=(8, 16),
                          math_items=(1, 3), no_math_share=0.1, cites=(1, 3),
                          queries=12),
        settings={"k_topics": 2},
        corpora=16,
    ),
    Workload(
        name="paper-pools",
        why="2k paper-shaped documents give pools of 30-80 sentences on which the "
            "solver exhausts a fixed node budget: shows the known solver defect",
        corpus=CorpusSpec(documents=2_000, sentences=(5, 10), words=(12, 28),
                          math_items=(1, 3), no_math_share=0.25, cites=(1, 3),
                          queries=24),
        settings={"solver_max_nodes": 5_000},
    ),
)}
