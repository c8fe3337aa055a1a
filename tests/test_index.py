"""The cached corpus index behind describe: reuse, invalidation by content, release."""

import gc
import os
import shutil
import weakref

import pytest

from mathgloss import PipelineConfig, Query, build_trg, describe, load_corpus, load_vectors
from mathgloss import corpus as corpus_module
from mathgloss import index as index_module
from mathgloss import textsim as textsim_module
from mathgloss import trg as trg_module
from mathgloss.errors import DimensionMismatch, EmptyCorpus, MalformedRecord
from mathgloss.index import build_index, corpus_index

GOLDEN_EXPR = "a^2+b^2=c^2"
GOLDEN_CONTEXT = "pythagorean theorem for the sides of a right triangle"
FIRST_LINE = "The side opposite the right angle is the hypotenuse the longest side of the triangle."


@pytest.fixture
def inputs(fixture_paths, tmp_path):
    """Private copies of the fixture files, free to rewrite."""
    copies = {}
    for name, path in fixture_paths.items():
        copies[name] = tmp_path / path.name
        shutil.copyfile(path, copies[name])
    return copies


def _paths(inputs):
    return inputs["corpus"], inputs["vectors"], inputs["stopwords"]


def _describe(inputs):
    config = PipelineConfig(corpus_path=inputs["corpus"], vectors_path=inputs["vectors"],
                            stopwords_path=inputs["stopwords"])
    return describe(Query.parse(GOLDEN_EXPR, GOLDEN_CONTEXT), config)


def _rewrite_keeping_size_and_times(path, old: bytes, new: bytes):
    """Replace old by new in the file, with the file's size and times unchanged."""
    assert len(old) == len(new)
    stat = os.stat(path)
    content = path.read_bytes()
    assert old in content
    path.write_bytes(content.replace(old, new))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns


def test_same_bytes_reuse_the_index(inputs, fixture_paths):
    first = corpus_index(*_paths(inputs))
    assert corpus_index(*_paths(inputs)) is first
    # the key is the files' content, not their names
    assert corpus_index(fixture_paths["corpus"], fixture_paths["vectors"],
                        fixture_paths["stopwords"]) is first


def test_rewrite_of_same_size_and_times_is_read_afresh(inputs):
    description, _ = _describe(inputs)
    assert description.texts[0] == FIRST_LINE
    # upper case leaves every token, and so every score and the selection, as
    # they were; only the verbatim sentence text changes
    _rewrite_keeping_size_and_times(inputs["corpus"], b"The side opposite", b"THE SIDE opposite")
    fresh, trace = _describe(inputs)
    assert fresh.texts[0] == "THE SIDE opposite" + FIRST_LINE[len("The side opposite"):]
    assert fresh.texts[1:] == description.texts[1:]
    assert trace.selected == (1, 3, 6, 7, 13)


def test_rewritten_stopwords_are_read_afresh(inputs):
    first = corpus_index(*_paths(inputs))
    assert "the" in first.store.stopwords
    _rewrite_keeping_size_and_times(inputs["stopwords"], b"the\n", b"tha\n")
    assert "the" not in corpus_index(*_paths(inputs)).store.stopwords


def test_corrupt_rewrite_raises_instead_of_a_stale_answer(inputs):
    description, _ = _describe(inputs)
    _rewrite_keeping_size_and_times(inputs["corpus"], b'{"id"', b'{"id ')
    with pytest.raises(MalformedRecord):
        _describe(inputs)
    with pytest.raises(MalformedRecord):  # nothing half-built was kept either
        _describe(inputs)
    _rewrite_keeping_size_and_times(inputs["corpus"], b'{"id ', b'{"id"')
    assert _describe(inputs)[0].texts == description.texts


def test_old_index_is_released_before_the_next_is_built(inputs, monkeypatch):
    old = weakref.ref(corpus_index(*_paths(inputs)))
    alive_at_build = []
    build = index_module.build_index

    def spy(*paths):
        alive_at_build.append(old() is not None)
        return build(*paths)

    monkeypatch.setattr(index_module, "build_index", spy)
    _rewrite_keeping_size_and_times(inputs["stopwords"], b"the\n", b"tha\n")
    corpus_index(*_paths(inputs))
    assert alive_at_build == [False]


# --------------------------------------------------------------------------
# the build runs without the cyclic garbage collector

@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched to the parameter's state, and back afterwards."""
    found = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if found else gc.disable)()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


_BUILDS = {
    "load_corpus": (lambda inputs, tmp_path: load_corpus(inputs["corpus"]), None),
    "load_corpus, malformed line": (
        lambda inputs, tmp_path: load_corpus(_write(tmp_path, "bad.jsonl", "{not json\n")),
        MalformedRecord),
    "load_corpus, empty corpus": (
        lambda inputs, tmp_path: load_corpus(_write(tmp_path, "empty.jsonl", "\n")), EmptyCorpus),
    "load_vectors": (lambda inputs, tmp_path: load_vectors(inputs["vectors"], inputs["stopwords"]),
                     None),
    "load_vectors, bad row": (
        lambda inputs, tmp_path: load_vectors(_write(tmp_path, "bad.txt", "a 1 x\n"),
                                              inputs["stopwords"]),
        DimensionMismatch),
    "build_trg": (lambda inputs, tmp_path: build_trg(load_corpus(inputs["corpus"])), None),
    "build_index": (lambda inputs, tmp_path: build_index(*_paths(inputs)), None),
    "build_index, malformed line": (
        lambda inputs, tmp_path: build_index(_write(tmp_path, "bad.jsonl", "{not json\n"),
                                             inputs["vectors"], inputs["stopwords"]),
        MalformedRecord),
    "build_index, empty corpus": (
        lambda inputs, tmp_path: build_index(_write(tmp_path, "empty.jsonl", ""),
                                             inputs["vectors"], inputs["stopwords"]),
        EmptyCorpus),
}


@pytest.mark.parametrize("name", _BUILDS)
def test_builds_leave_the_collector_as_they_found_it(name, collector, inputs, tmp_path):
    build, raises = _BUILDS[name]
    if raises is None:
        build(inputs, tmp_path)
    else:
        with pytest.raises(raises):
            build(inputs, tmp_path)
    assert gc.isenabled() is collector


def _record_collector(monkeypatch, module, name, seen):
    """Replace module.name by a wrapper that notes, per call, its arguments and
    whether the collector is on."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append((args, gc.isenabled()))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("collector", [True], indirect=True, ids=["collector-on"])
def test_the_collector_is_off_while_each_build_runs(collector, inputs, monkeypatch):
    seen = {"parse": [], "lines": [], "edge": [], "topics": []}
    _record_collector(monkeypatch, corpus_module, "parse_expression", seen["parse"])
    _record_collector(monkeypatch, textsim_module, "numbered_lines", seen["lines"])
    _record_collector(monkeypatch, trg_module, "Edge", seen["edge"])
    _record_collector(monkeypatch, index_module, "TopicIndex", seen["topics"])
    corpus = load_corpus(inputs["corpus"])
    load_vectors(inputs["vectors"], inputs["stopwords"])
    build_trg(corpus)
    assert gc.isenabled()
    build_index(*_paths(inputs))
    assert gc.isenabled()
    # the stopword list is small and read with the collector as it is
    seen["lines"] = [(args, on) for args, on in seen["lines"] if args[1] == inputs["vectors"]]
    assert all(len(seen[key]) >= 2 for key in ("parse", "lines", "edge")), seen
    assert len(seen["topics"]) == 1
    assert not any(on for calls in seen.values() for _, on in calls)
