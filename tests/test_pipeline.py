"""End-to-end pipeline behaviour and the command-line interface."""

import json
import math

import numpy as np
import pytest

from mathgloss import PipelineConfig, Query, cli_run, describe
from mathgloss.pipeline import main

GOLDEN_ARGS = [
    "--expr", "a^2+b^2=c^2",
    "--context", "pythagorean theorem for the sides of a right triangle",
]

GOLDEN_LINES = [
    "The side opposite the right angle is the hypotenuse the longest side of the triangle.",
    "Euclidean geometry is the study of plane figures including triangles their sides and each angle.",
    "The Pythagorean theorem relates the sides legs and hypotenuse of a right triangle.",
    "In any right triangle the square of the hypotenuse equals the sum of the squares of the legs.",
    "For a triangle the sum of the lengths of any two sides exceeds the length of the third side.",
]


def _config(fixture_paths, **overrides):
    return PipelineConfig(corpus_path=fixture_paths["corpus"],
                          vectors_path=fixture_paths["vectors"],
                          stopwords_path=fixture_paths["stopwords"],
                          **overrides)


def _cli_args(fixture_paths, *extra):
    return ["--corpus", str(fixture_paths["corpus"]),
            "--vectors", str(fixture_paths["vectors"]),
            "--stopwords", str(fixture_paths["stopwords"]),
            *GOLDEN_ARGS, *extra]


# --------------------------------------------------------------------------
# describe

def test_describe_reproduces_golden_run(fixture_paths, golden_query):
    description, trace = describe(golden_query, _config(fixture_paths))
    assert description.texts == GOLDEN_LINES
    assert description.word_count == 80
    assert trace.selected == (1, 3, 6, 7, 13)
    assert trace.objective == 66.65620634635579
    assert trace.pool_size == 15
    assert trace.concept_count == 90
    assert trace.budget == 130
    assert trace.sentence_cap == 5
    assert [t.title for t in trace.topics] == [
        "Pythagorean theorem", "Right triangle", "Euclidean geometry"]
    assert trace.graph_report.edges_kept == 12


def test_description_sentences_are_verbatim_corpus_sentences(
        fixture_paths, corpus, golden_query):
    description, _ = describe(golden_query, _config(fixture_paths))
    all_sentences = {s.text for doc in corpus for s in doc.sentences}
    for sentence in description.sentences:
        assert sentence.text in all_sentences
        source = corpus.get(sentence.document)
        assert source.sentences[sentence.position].text == sentence.text


def test_caps_are_respected_when_tightened(fixture_paths, golden_query):
    description, trace = describe(
        golden_query, _config(fixture_paths, max_words=20, max_sentences=2))
    assert description.word_count <= 20
    assert len(description.sentences) <= 2
    assert trace.budget == 20 and trace.sentence_cap == 2


def test_vocabulary_free_query_still_describes(fixture_paths):
    query = Query.parse("q", "words nowhere near the vector vocabulary")
    description, trace = describe(query, _config(fixture_paths))
    # nothing matches, so ranking falls back to the title-ordered zero scores
    assert [t.title for t in trace.topics] == [
        "Bayes' theorem", "Binomial theorem", "Cassini's identity"]
    assert all(t.score == 0.0 for t in trace.topics)
    assert description.sentences  # a description is still produced


def test_trace_to_dict_schema(fixture_paths, golden_query):
    _, trace = describe(golden_query, _config(fixture_paths))
    data = trace.to_dict()
    assert set(data) == {"topics", "documents", "timeline", "graph",
                         "pool_size", "concept_count", "budget",
                         "sentence_cap", "selected", "objective"}
    assert data["graph"] == {"edges_kept": 12, "dangling_dropped": 2,
                             "self_dropped": 1}
    assert data["selected"] == [1, 3, 6, 7, 13]
    assert data["timeline"][0] == {"document": "Right triangle", "timestamp": 0.9}
    assert data["timeline"][-1] == {"document": "Triangle inequality",
                                    "timestamp": None}


# --------------------------------------------------------------------------
# CLI

def test_cli_success_prints_description(fixture_paths, capsys):
    assert cli_run(_cli_args(fixture_paths)) == 0
    captured = capsys.readouterr()
    assert captured.out == "".join(line + "\n" for line in GOLDEN_LINES)
    assert captured.err == ""


def test_cli_missing_required_flag_is_usage_error(fixture_paths, capsys):
    args = _cli_args(fixture_paths)
    index = args.index("--corpus")
    del args[index:index + 2]
    assert cli_run(args) == 1
    captured = capsys.readouterr()
    assert "usage" in captured.err
    assert "--corpus" in captured.err


def test_cli_unknown_flag_is_usage_error(fixture_paths, capsys):
    assert cli_run(_cli_args(fixture_paths, "--frobnicate")) == 1
    assert "usage" in capsys.readouterr().err


def test_cli_non_integer_k_is_usage_error(fixture_paths, capsys):
    assert cli_run(_cli_args(fixture_paths, "--k", "three")) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--k", "0"), ("--k", "-2"), ("--max-words", "-1"), ("--max-sentences", "-1"),
])
def test_cli_out_of_range_flag_is_usage_error(fixture_paths, capsys, flag, value):
    assert cli_run(_cli_args(fixture_paths, flag, value)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage:")
    assert err[-1].startswith("error:") and flag in err[-1]
    assert not any("Traceback" in line for line in err)


def test_cli_zero_limits_are_accepted(fixture_paths, capsys):
    assert cli_run(_cli_args(fixture_paths, "--max-words", "0",
                             "--max-sentences", "0")) == 0
    assert capsys.readouterr().out == ""


def test_cli_missing_corpus_file_is_data_error(fixture_paths, capsys):
    args = _cli_args(fixture_paths)
    args[args.index("--corpus") + 1] = "/nonexistent/corpus.jsonl"
    assert cli_run(args) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_malformed_expression_is_data_error(fixture_paths, capsys):
    args = _cli_args(fixture_paths)
    args[args.index("--expr") + 1] = "a+"
    assert cli_run(args) == 2
    assert "cannot parse --expr" in capsys.readouterr().err


def test_cli_malformed_corpus_is_data_error(fixture_paths, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "d1"}\n', encoding="utf-8")
    args = _cli_args(fixture_paths)
    args[args.index("--corpus") + 1] = str(bad)
    assert cli_run(args) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 1" in err


def test_cli_expression_nested_too_deeply_is_data_error(fixture_paths, capsys):
    args = _cli_args(fixture_paths)
    args[args.index("--expr") + 1] = "(" * 3000 + "a" + ")" * 3000
    assert cli_run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse --expr") and err.count("\n") == 1
    assert "nested too deeply" in err

@pytest.mark.parametrize("flag", ["--corpus", "--vectors", "--stopwords"])
def test_cli_file_that_is_not_utf8_is_data_error(fixture_paths, tmp_path, capsys, flag):
    name = flag.lstrip("-")
    bad = tmp_path / fixture_paths[name].name
    bad.write_bytes(b"\xff\xfe" + fixture_paths[name].read_bytes())
    args = _cli_args(fixture_paths)
    args[args.index(flag) + 1] = str(bad)
    assert cli_run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not UTF-8" in err


def test_cli_json_output(fixture_paths, capsys):
    assert cli_run(_cli_args(fixture_paths, "--json")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"description", "trace"}
    assert payload["description"] == GOLDEN_LINES
    assert payload["trace"]["selected"] == [1, 3, 6, 7, 13]
    assert payload["trace"]["topics"][0]["title"] == "Pythagorean theorem"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_json_stays_finite_when_vector_sums_overflow(fixture_paths, tmp_path, capsys):
    # every component at 1.7e308: the sum of two overflows, their mean does not
    huge = tmp_path / "vectors.txt"
    rows = fixture_paths["vectors"].read_text(encoding="utf-8").splitlines()
    huge.write_text("".join(" ".join([row.split()[0]] + ["1.7e308"] * (len(row.split()) - 1))
                            + "\n" for row in rows if row.strip()), encoding="utf-8")
    args = _cli_args(fixture_paths, "--json")
    args[args.index("--vectors") + 1] = str(huge)
    args[args.index("--context") + 1] = "right triangle hypotenuse legs"
    with np.errstate(over="ignore"):
        assert cli_run(args) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["description"]
    assert all(math.isfinite(t["score"]) for t in payload["trace"]["topics"])

def test_cli_trace_goes_to_stderr(fixture_paths, capsys):
    assert cli_run(_cli_args(fixture_paths, "--trace")) == 0
    captured = capsys.readouterr()
    assert captured.out == "".join(line + "\n" for line in GOLDEN_LINES)
    assert "topics:" in captured.err
    assert "selected: [1, 3, 6, 7, 13]" in captured.err


def test_cli_honours_tighter_limits(fixture_paths, capsys):
    assert cli_run(_cli_args(fixture_paths, "--max-words", "20",
                             "--max-sentences", "1")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert len(lines[0].split()) <= 20


def test_cli_k_beyond_corpus_is_fine(fixture_paths, capsys):
    assert cli_run(_cli_args(fixture_paths, "--k", "12")) == 0
    assert capsys.readouterr().out  # still produces a description


def test_main_wraps_cli(fixture_paths, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["mathgloss", *_cli_args(fixture_paths)])
    with pytest.raises(SystemExit) as excinfo:
        main()
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in GOLDEN_LINES)
