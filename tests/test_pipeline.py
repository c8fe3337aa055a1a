"""End-to-end pipeline behaviour and the command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mathgloss import (EmbeddingStore, PipelineConfig, Query, cli_run, cosine, describe,
                       extract_concepts, rank_topics, select_relevant)
from mathgloss.pipeline import _build_parser, main

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


# file names that open() rejects with ValueError before it reaches the file system
_NAMES_OPEN_REJECTS = ["\ud800", "cor\x00pus"]


@pytest.mark.parametrize("flag", ["corpus", "vectors", "stopwords"])
@pytest.mark.parametrize("name", _NAMES_OPEN_REJECTS, ids=["lone surrogate", "null byte"])
def test_cli_file_name_open_rejects_is_data_error(fixture_paths, capsys, flag, name):
    args = _cli_args(fixture_paths)
    args[args.index(f"--{flag}") + 1] = name
    assert cli_run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


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


def _overflowing_vectors_args(fixture_paths, tmp_path, *extra):
    """CLI arguments whose vector file has every component at 1.7e308: the sum
    of two overflows, and so does every squared norm, but no mean does."""
    huge = tmp_path / "vectors.txt"
    rows = fixture_paths["vectors"].read_text(encoding="utf-8").splitlines()
    huge.write_text("".join(" ".join([row.split()[0]] + ["1.7e308"] * (len(row.split()) - 1))
                            + "\n" for row in rows if row.strip()), encoding="utf-8")
    args = _cli_args(fixture_paths, *extra)
    args[args.index("--vectors") + 1] = str(huge)
    args[args.index("--context") + 1] = "right triangle hypotenuse legs"
    return args


def test_cli_json_stays_finite_when_vector_sums_overflow(fixture_paths, tmp_path, capsys):
    assert cli_run(_overflowing_vectors_args(fixture_paths, tmp_path, "--json")) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["description"]
    assert all(math.isfinite(t["score"]) for t in payload["trace"]["topics"])


def test_cli_prints_no_warning_when_squared_norms_overflow(fixture_paths, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would go to stderr
        assert cli_run(_overflowing_vectors_args(fixture_paths, tmp_path)) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_library_stages_print_no_warning_when_squared_norms_overflow(
        corpus, graph, store, golden_query):
    # components near 1e200 leave every sum finite but overflow each squared norm
    huge = EmbeddingStore(dimension=store.dimension, stopwords=store.stopwords,
                          vectors={w: 1e200 * v for w, v in store.vectors.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        topics = rank_topics(golden_query, corpus, huge)
        documents = select_relevant(graph, topics, golden_query, huge)
        pool, concepts = extract_concepts(documents, golden_query, huge)
        vector = huge.vectors["triangle"]
        assert cosine(vector, 3.0 * vector) == 1.0
    assert [t.title for t in topics] == ["Pythagorean theorem", "Right triangle",
                                         "Euclidean geometry"]
    assert documents and pool and concepts


_FIXTURE_FILES = {name: (Path(__file__).parent / "fixtures" / f"{name}.{ext}").read_bytes()
                  for name, ext in (("corpus", "jsonl"), ("vectors", "txt"),
                                    ("stopwords", "txt"))}
_CORPUS_LINES = _FIXTURE_FILES["corpus"].decode("utf-8").splitlines()


def _with_lone_surrogate(field: str) -> str:
    """The first fixture record (the golden query's top topic) with a lone
    surrogate opening its title or first sentence, written as a \\u escape."""
    record = json.loads(_CORPUS_LINES[0])
    if field == "title":
        record["title"] = "\ud800" + record["title"]
    else:
        record["sentences"][0] = "\ud800 " + record["sentences"][0]
    return json.dumps(record)


def _corpus_with_first_line(line: str) -> bytes:
    return "".join(l + "\n" for l in [line, *_CORPUS_LINES[1:]]).encode("utf-8")


# corpus lines that are valid JSON text but hold what Python cannot load or print
_BAD_FIRST_LINES = {
    "nested": ("[" * 100_000, "invalid JSON: nested too deeply"),
    "digits": ('{"id": ' + "9" * 5000 + "}", "invalid JSON: integer has too many digits"),
    "surrogate in a title": (_with_lone_surrogate("title"), "lone surrogate \\ud800"),
    "surrogate in a sentence": (_with_lone_surrogate("sentences"), "lone surrogate \\ud800"),
}


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize("case", list(_BAD_FIRST_LINES))
def test_cli_corpus_line_python_cannot_hold_is_data_error(fixture_paths, tmp_path, capsys,
                                                          case, output):
    line, reason = _BAD_FIRST_LINES[case]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(_corpus_with_first_line(line))
    args = _cli_args(fixture_paths, *output)
    args[args.index("--corpus") + 1] = str(corpus)
    assert cli_run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: line 1: {reason}")
    assert captured.err.count("\n") == 1

def test_cli_trace_goes_to_stderr(fixture_paths, capsys):
    assert cli_run(_cli_args(fixture_paths, "--trace")) == 0
    captured = capsys.readouterr()
    assert captured.out == "".join(line + "\n" for line in GOLDEN_LINES)
    assert "topics:" in captured.err
    assert "selected: [1, 3, 6, 7, 13]" in captured.err


def _trace_entries(err: str) -> list[tuple[str, object]]:
    """The --trace lines on stderr as (key, decoded JSON value) pairs, in order."""
    entries = []
    for line in err.splitlines():
        key, separator, value = line.partition(": ")
        assert separator, line
        entries.append((key, json.loads(value)))
    return entries


# titles of the golden query's three topics, each broken by a str.splitlines line break
_BROKEN_TITLES = {"Pythagorean theorem": "Pythagorean\ntheorem",
                  "Right triangle": "Right\x85triangle",
                  "Euclidean geometry": "Euclidean\u2028geometry"}


def _corpus_with_titles(renamed: dict[str, str]) -> bytes:
    records = [json.loads(line) for line in _CORPUS_LINES]
    for record in records:
        record["title"] = renamed.get(record["title"], record["title"])
        for item in record["math"]:
            item["cites"] = [renamed.get(c, c) for c in item["cites"]]
    return "".join(json.dumps(record) + "\n" for record in records).encode("utf-8")


@pytest.mark.parametrize("renamed", [{}, _BROKEN_TITLES], ids=["fixture", "line breaks"])
def test_cli_trace_prints_each_to_dict_entry_on_one_line(fixture_paths, golden_query,
                                                         tmp_path, capsys, renamed):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(_corpus_with_titles(renamed))
    args = _cli_args(fixture_paths, "--trace")
    args[args.index("--corpus") + 1] = str(corpus)
    assert cli_run(args) == 0
    entries = _trace_entries(capsys.readouterr().err)
    _, trace = describe(golden_query, _config({**fixture_paths, "corpus": corpus}))
    assert entries == list(trace.to_dict().items())
    assert [t.title for t in trace.topics] == [renamed.get(title, title) for title in (
        "Pythagorean theorem", "Right triangle", "Euclidean geometry")]


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


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["plain", "json"])
def test_closed_stdout_pipe_is_one_error_line_and_exit_2(fixture_paths, extra, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    src = str(Path(__file__).parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:  # print raises at once; buffered, cli_run's flush does
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        result = subprocess.run([sys.executable, "-m", "mathgloss",
                                 *_cli_args(fixture_paths, *extra)],
                                stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    err = result.stderr.decode("utf-8")
    assert _is_one_error_line(err), err


# --------------------------------------------------------------------------
# CLI contract under arbitrary flags and file bytes

_ARG_TEXT = st.text(st.characters(blacklist_characters="\x00"), max_size=12)  # argv holds no NUL
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6)


def _spliced(base: bytes):
    """base with a slice replaced by random bytes, or random bytes alone."""
    return st.one_of(
        st.tuples(st.integers(0, len(base)), st.integers(0, 16), st.binary(max_size=16)).map(
            lambda cut: base[:cut[0]] + cut[2] + base[cut[0] + cut[1]:]),
        st.binary(max_size=64))


@st.composite
def _edited_record(draw):
    """The fixture corpus with one field of one record, or of its first math
    item, replaced by an arbitrary JSON value."""
    lines = list(_CORPUS_LINES)
    at = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[at])
    target = record
    if record["math"] and draw(st.booleans()):
        target = record["math"][0]
    target[draw(st.sampled_from(sorted(target)))] = draw(_JSON)
    lines[at] = json.dumps(record)
    return "".join(line + "\n" for line in lines).encode("utf-8")


@st.composite
def _input_files(draw):
    """The fixture files as (corpus, vectors, stopwords) bytes, at most one damaged."""
    files = dict(_FIXTURE_FILES)
    damaged = draw(st.sampled_from([None, None, None, "corpus", "vectors", "stopwords"]))
    if damaged == "corpus":
        files[damaged] = draw(st.one_of(_spliced(files[damaged]), _edited_record()))
    elif damaged:
        files[damaged] = draw(_spliced(files[damaged]))
    return files["corpus"], files["vectors"], files["stopwords"]


def _mostly(usual, unusual):
    """Draw from usual three times in four, else from unusual."""
    return st.sampled_from([usual, usual, usual, unusual]).flatmap(lambda strategy: strategy)


# caps of at most 6 sentences keep every fixture query within a tenth of a second
_OPTIONS = st.lists(st.one_of(
    st.tuples(st.just("--k"), st.sampled_from(["3", "1", "2", "5", "12", "13", "0"])),
    st.tuples(st.just("--max-sentences"), st.sampled_from(["5", "0", "1", "3", "6", "-1"])),
    st.tuples(st.just("--max-words"), st.sampled_from(["130", "0", "1", "20", "400", "-1"]))),
    max_size=3)
_OUTPUT = st.sampled_from([[("--json",)], [], [("--trace",)], [("--json",), ("--trace",)]])
_STRAY = st.tuples(_ARG_TEXT) | st.tuples(
    st.sampled_from(["--k", "--max-words", "--max-sentences", "--expr", "--context"]), _ARG_TEXT)
_ARGV_TAIL = st.tuples(_OPTIONS, _OUTPUT, _mostly(st.just([]), _STRAY.map(lambda s: [s]))).map(
    lambda parts: [token for part in parts for option in part for token in option])


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli_run with stdout and stderr encoded as a terminal would: stdout UTF-8
    strict, stderr with backslash escapes.  SystemExit (from --help) counts as
    an exit with its code."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_run(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    err.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.buffer.getvalue().decode("utf-8")


def _is_one_error_line(text: str) -> bool:
    return text.startswith("error: ") and text.endswith("\n") and len(text.splitlines()) == 1


def _cli_case(corpus: bytes, options: list[str], corpus_name: str = "corpus") -> dict:
    return dict(files=(corpus, _FIXTURE_FILES["vectors"], _FIXTURE_FILES["stopwords"]),
                expr=GOLDEN_ARGS[1], context=GOLDEN_ARGS[3], options=options,
                corpus_name=corpus_name)


def _bad_first_line(case: str, options: list[str]) -> dict:
    return _cli_case(_corpus_with_first_line(_BAD_FIRST_LINES[case][0]), options)


def _stray_argument(text: str) -> dict:
    return _cli_case(_FIXTURE_FILES["corpus"], [text])


def _not_utf8_corpus_named(name: str) -> dict:
    return _cli_case(b"\xff\xfe\n", [], corpus_name=name)


@given(files=_input_files(),
       expr=_mostly(st.sampled_from([GOLDEN_ARGS[1], "a+b>c", "x", "F_{n+2}=F_{n+1}+F_n",
                                     "(" * 500 + "x"]), _ARG_TEXT),
       context=_mostly(st.just(GOLDEN_ARGS[3]), _ARG_TEXT),
       options=_ARGV_TAIL,
       corpus_name=_mostly(st.just("corpus"), st.sampled_from(["cor\npus", "\x85corpus\u2028",
                                                               *_NAMES_OPEN_REJECTS])))
@example(**_bad_first_line("nested", []))
@example(**_bad_first_line("digits", ["--json"]))
@example(**_bad_first_line("surrogate in a title", ["--json"]))
@example(**_bad_first_line("surrogate in a sentence", []))
@example(**_stray_argument("a\nb"))
@example(**_not_utf8_corpus_named("cor\npus"))
@example(**_cli_case(_FIXTURE_FILES["corpus"], [], corpus_name="\ud800"))
@example(**_cli_case(_FIXTURE_FILES["corpus"], ["--trace"], corpus_name="cor\x00pus"))
def test_cli_contract_holds_for_any_flags_and_file_bytes(files, expr, context, options,
                                                         corpus_name):
    with tempfile.TemporaryDirectory() as directory:
        argv = []
        for name, data in zip(("corpus", "vectors", "stopwords"), files):
            path = Path(directory) / (corpus_name if name == "corpus" else name)
            if path.name not in _NAMES_OPEN_REJECTS:  # no file can have such a name
                path.write_bytes(data)
            argv += [f"--{name}", str(path)]
        argv += ["--expr", expr, "--context", context, *options]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # would print on stderr
            code, out, err = _run_cli(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and _is_one_error_line(err)
    elif code == 1:
        usage, _, error = err.partition("\nerror: ")
        assert out == "" and usage.startswith("usage: ") and _is_one_error_line("error: " + error)
    elif out.startswith("usage:"):  # --help
        assert err == ""
    else:
        args = _build_parser().parse_args(argv)
        if args.as_json:
            payload = json.loads(out, parse_constant=_reject_constant)
            assert set(payload) == {"description", "trace"}
        if not args.trace or args.as_json:
            assert err == ""
        else:
            assert [key for key, _ in _trace_entries(err)] == [
                "topics", "documents", "timeline", "graph", "pool_size", "concept_count",
                "budget", "sentence_cap", "selected", "objective"]
