"""Solve a coverage instance stored as JSON and verify the result.

The JSON layout is the one written by ``mathgloss.summarizer.dump_instance``:
sentence texts, token lengths, bigram concepts with weights and relevances,
each sentence's covered concept indices in ascending order (``covers``), the
word budget, and the sentence cap.

Usage:  python3 scripts/solve_instance.py INSTANCE.json [--max-nodes N]
"""

import argparse
import sys
from pathlib import Path

try:
    from mathgloss.summarizer import (DEFAULT_MAX_NODES, load_instance,
                                      solve_ilp, verify_selection)
except ImportError:  # running from a checkout without an editable install
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from mathgloss.summarizer import (DEFAULT_MAX_NODES, load_instance,
                                      solve_ilp, verify_selection)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("instance", type=Path, help="instance JSON file")
    parser.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES,
                        help="abort if the search expands more nodes than this")
    args = parser.parse_args(argv)

    instance = load_instance(args.instance)
    selection = solve_ilp(instance, max_nodes=args.max_nodes)
    verify_selection(instance, selection)

    print(f"sentences: {len(instance.sentences)}, concepts: {len(instance.concepts)}, "
          f"budget: {instance.budget}, cap: {instance.sentence_cap}")
    print(f"selected: {list(selection.sentences)}")
    print(f"covered concepts: {len(selection.concepts)}")
    print(f"objective: {selection.objective!r}")
    used = sum(instance.lengths[j] for j in selection.sentences)
    print(f"words used: {used} / {instance.budget}")
    for j in selection.sentences:
        print(f"  [{j}] {instance.sentences[j]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
