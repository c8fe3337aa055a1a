"""The cached corpus index behind describe: reuse, invalidation by content, release."""

import os
import shutil
import weakref

import pytest

from mathgloss import PipelineConfig, Query, describe
from mathgloss import index as index_module
from mathgloss.errors import MalformedRecord
from mathgloss.index import corpus_index

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
