"""Outcome digests and the checks that make a run's outputs count as correct."""

from __future__ import annotations

import hashlib
import json

# the one failure the inputs are built to provoke: the exact solver giving up
# on a large pool; any other MathGlossError means the inputs or program are wrong
EXPECTED_FAILURE = "InstanceTooLarge"


def solved_digest(texts: list[str], selected, objective: float) -> str:
    payload = json.dumps([list(texts), list(selected), float.hex(objective)],
                         ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def failed_digest(failure: str) -> str:
    return "raised:" + failure


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()[:16]


def check_solved(texts: list[str], selected, word_count: int, config) -> list[str]:
    """Constraint violations of one answered query, from its own output."""
    problems = []
    if list(selected) != sorted(set(selected)):
        problems.append(f"selected indices {list(selected)} not distinct and sorted")
    if len(texts) != len(selected):
        problems.append(f"{len(texts)} sentences for {len(selected)} selected indices")
    if len(texts) > config.max_sentences:
        problems.append(f"{len(texts)} sentences over the cap {config.max_sentences}")
    if word_count > config.max_words:
        problems.append(f"{word_count} words over the budget {config.max_words}")
    return problems


def check_against(digests: dict[int, str], reference: dict[int, str], what: str) -> list[str]:
    """Mismatches of digests against a reference, over the query indices both hold."""
    return [f"query {i}: {digests[i]} differs from {what} {reference[i]}"
            for i in sorted(digests.keys() & reference.keys())
            if digests[i] != reference[i]]


def check_pins(digests: dict[int, str], pins: dict[int, str]) -> list[str]:
    """check_against the pinned digests, except where the pin is the expected failure.

    A query that failed when the pins were taken may now be answered: the pins
    hold no answer to compare with, and the answer passed check_solved already.
    """
    expected_failure = failed_digest(EXPECTED_FAILURE)
    comparable = {i: d for i, d in pins.items()
                  if d != expected_failure or digests.get(i, d).startswith("raised:")}
    return check_against(digests, comparable, "pinned")
