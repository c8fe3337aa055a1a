"""Smoke tests: the scripts under scripts/ run as programs and print what they promise."""

import ast
import json
import random
import re
import subprocess
import sys
from pathlib import Path

from mathgloss import PipelineConfig, describe
from mathgloss.summarizer import dump_instance, solve_ilp
from oracles import random_instance
from test_acceptance import (DERIVED_TOPIC_SCORES, GOLDEN_DOCUMENTS, GOLDEN_LINES,
                             GOLDEN_OBJECTIVE, GOLDEN_PROVENANCE, GOLDEN_SELECTED,
                             GOLDEN_TIMELINE, GOLDEN_WORD_COUNT)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, encoding="utf-8", timeout=120)


def _golden_run(fixture_paths, golden_query):
    config = PipelineConfig(corpus_path=fixture_paths["corpus"],
                            vectors_path=fixture_paths["vectors"],
                            stopwords_path=fixture_paths["stopwords"])
    return describe(golden_query, config)


def test_run_demo_prints_the_golden_description_and_its_trace(fixture_paths, golden_query):
    result = _run("run_demo.py")
    assert result.returncode == 0, result.stderr
    description, trace = _golden_run(fixture_paths, golden_query)
    assert result.stdout.splitlines() == description.texts
    entries = [line.partition(": ") for line in result.stderr.splitlines()]
    assert [(key, json.loads(value)) for key, _, value in entries] == list(
        trace.to_dict().items())


def test_run_demo_json(fixture_paths, golden_query):
    result = _run("run_demo.py", "--json")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    description, trace = _golden_run(fixture_paths, golden_query)
    assert json.loads(result.stdout) == {"description": description.texts,
                                         "trace": trace.to_dict()}


def test_solve_instance_solves_a_dumped_instance(tmp_path):
    instance = random_instance(random.Random(13))
    path = tmp_path / "instance.json"
    dump_instance(instance, path)
    result = _run("solve_instance.py", str(path))
    assert result.returncode == 0, result.stderr
    selection = solve_ilp(instance)
    assert f"selected: {list(selection.sentences)}" in result.stdout.splitlines()
    assert f"objective: {selection.objective!r}" in result.stdout.splitlines()


def test_derive_fixture_expectations_prints_the_pinned_literals():
    result = _run("derive_fixture_expectations.py")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    printed = {key: ast.literal_eval(value) for key, _, value in
               (line.strip().partition(" = ") for line in lines) if value}
    assert printed == {"TOPIC_SCORES": DERIVED_TOPIC_SCORES, "SELECTED": GOLDEN_SELECTED,
                       "OBJECTIVE": GOLDEN_OBJECTIVE, "WORD_COUNT": GOLDEN_WORD_COUNT}
    fields = dict(line.partition(": ")[::2] for line in lines if ": [" in line)
    assert ast.literal_eval(fields["documents"]) == GOLDEN_DOCUMENTS
    assert ast.literal_eval(fields["timeline"]) == GOLDEN_TIMELINE
    described = [re.fullmatch(r"  \[(.+) #(\d+)\] (.+)", line)
                 for line in lines[lines.index("description:") + 1:]]
    assert [(m[1], int(m[2])) for m in described] == GOLDEN_PROVENANCE
    assert [m[3] for m in described] == GOLDEN_LINES
