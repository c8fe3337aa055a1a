"""Corpus loading, tokenization, and record validation."""

import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathgloss import load_corpus, tokenize
from mathgloss.corpus import Sentence, _strip_punct
from mathgloss.errors import DuplicateTitle, EmptyCorpus, MalformedRecord
from oracles import random_corpus


# --------------------------------------------------------------------------
# tokenization

def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize("A, b. C") == ["a", "b", "c"]


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("Cassini's identity states that") == \
        ["cassini's", "identity", "states", "that"]


def test_tokenize_drops_empty_tokens():
    assert tokenize("") == []
    assert tokenize("  ..  !?  ") == []


def test_tokenize_handles_bracketed_words():
    assert tokenize("(legs) [and] {hypotenuse}.") == ["legs", "and", "hypotenuse"]


@given(st.text())
def test_tokenize_idempotent_on_its_own_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


@given(st.text())
def test_tokenize_strips_every_word_as_strip_punct_does(text):
    # tokenize skips _strip_punct for words with a letter or digit at both ends
    expected = [t for t in map(_strip_punct, text.lower().split()) if t]
    assert tokenize(text) == expected


# --------------------------------------------------------------------------
# the bundled fixture

def test_fixture_shape(corpus):
    assert len(corpus) == 12
    assert sum(len(doc.math_items) for doc in corpus) == 14
    assert sum(len(item.cites) for doc in corpus for item in doc.math_items) == 15


def test_titles_keep_file_order(corpus, fixture_paths):
    with open(fixture_paths["corpus"], encoding="utf-8") as fh:
        raw_titles = [json.loads(line)["title"] for line in fh if line.strip()]
    assert corpus.titles == raw_titles
    assert corpus.titles[0] == "Pythagorean theorem"


def test_membership_and_lookup(corpus):
    assert "Golden ratio" in corpus
    assert "Golden Ratio" not in corpus  # titles are case-sensitive
    assert corpus.get("Golden ratio").id == "d07"


def test_sentence_positions_and_lengths(corpus):
    for doc in corpus:
        assert [s.position for s in doc.sentences] == list(range(len(doc.sentences)))
        for sentence in doc.sentences:
            assert list(sentence.tokens) == tokenize(sentence.text)


def test_math_items_parsed(corpus):
    item = corpus.get("Cassini's identity").math_items[0]
    assert item.source == "F_n^2-F_{n+1}F_{n-1}=(-1)^{n-1}"
    assert item.tree.root.label == "="
    assert item.cites == ("Fibonacci number", "Lucas number")


# --------------------------------------------------------------------------
# record validation

def _record(**overrides):
    base = {
        "id": "d1",
        "title": "Alpha",
        "leading_paragraph": "alpha beta.",
        "sentences": ["Alpha beta gamma."],
        "math": [{"source": "a+b", "context": "a sum", "cites": []}],
    }
    base.update(overrides)
    return base


def _write(tmp_path, records):
    path = tmp_path / "corpus.jsonl"
    lines = [r if isinstance(r, str) else json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n" + json.dumps(_record()) + "\n\n", encoding="utf-8")
    assert load_corpus(path).titles == ["Alpha"]


def test_unknown_fields_are_ignored(tmp_path):
    path = _write(tmp_path, [_record(extra="metadata", revision=7)])
    assert load_corpus(path).titles == ["Alpha"]


def test_invalid_json_reports_line_number(tmp_path):
    path = _write(tmp_path, [_record(), "{not json"])
    with pytest.raises(MalformedRecord) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_number == 2
    assert "invalid JSON" in str(excinfo.value)


def test_non_object_record_rejected(tmp_path):
    path = _write(tmp_path, ["[1, 2, 3]"])
    with pytest.raises(MalformedRecord, match="not a JSON object"):
        load_corpus(path)


@pytest.mark.parametrize("missing", ["id", "title", "leading_paragraph", "sentences", "math"])
def test_missing_required_field(tmp_path, missing):
    record = _record()
    del record[missing]
    path = _write(tmp_path, [record])
    with pytest.raises(MalformedRecord, match=missing):
        load_corpus(path)


def test_duplicate_title_rejected(tmp_path):
    path = _write(tmp_path, [_record(), _record(id="d2")])
    with pytest.raises(DuplicateTitle) as excinfo:
        load_corpus(path)
    assert excinfo.value.title == "Alpha"


def test_duplicate_id_rejected(tmp_path):
    path = _write(tmp_path, [_record(), _record(title="Beta")])
    with pytest.raises(MalformedRecord, match="duplicate document id"):
        load_corpus(path)


def test_empty_title_rejected(tmp_path):
    path = _write(tmp_path, [_record(title="")])
    with pytest.raises(MalformedRecord, match="title"):
        load_corpus(path)


def test_sentences_without_leading_paragraph_rejected(tmp_path):
    path = _write(tmp_path, [_record(leading_paragraph="")])
    with pytest.raises(MalformedRecord, match="leading_paragraph"):
        load_corpus(path)


def test_unparseable_math_source_rejected(tmp_path):
    path = _write(tmp_path, [_record(math=[{"source": "a+", "context": "x", "cites": []}])])
    with pytest.raises(MalformedRecord, match="a\\+"):
        load_corpus(path)


def test_math_source_nested_too_deeply_rejected(tmp_path):
    source = "(" * 3000 + "a" + ")" * 3000
    path = _write(tmp_path, [_record(math=[{"source": source, "context": "x", "cites": []}])])
    with pytest.raises(MalformedRecord, match="line 1: .*nested too deeply"):
        load_corpus(path)

def test_empty_citation_title_rejected(tmp_path):
    path = _write(tmp_path, [_record(math=[{"source": "a", "context": "x", "cites": [""]}])])
    with pytest.raises(MalformedRecord, match="empty citation"):
        load_corpus(path)


def test_math_item_missing_field_rejected(tmp_path):
    path = _write(tmp_path, [_record(math=[{"source": "a", "context": "x"}])])
    with pytest.raises(MalformedRecord, match="cites"):
        load_corpus(path)


def test_math_must_be_list_of_objects(tmp_path):
    path = _write(tmp_path, [_record(math=["a+b"])])
    with pytest.raises(MalformedRecord, match="not an object"):
        load_corpus(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpus):
        load_corpus(path)
    path.write_text("\n  \n", encoding="utf-8")
    with pytest.raises(EmptyCorpus):
        load_corpus(path)


def test_sentence_tokenizes_on_access():
    sentence = Sentence("Alpha beta gamma.", 0)
    assert sentence.tokens == ("alpha", "beta", "gamma")
    assert sentence.position == 0
    assert Sentence.__slots__ == ("text", "position")  # no tokens are held


def test_loading_tokenizes_no_sentence(fixture_paths, tmp_path, tokenize_calls):
    records = [{"id": doc.id, "title": doc.title, "leading_paragraph": doc.leading_paragraph,
                "sentences": [s.text for s in doc.sentences],
                "math": [{"source": m.source, "context": m.context, "cites": list(m.cites)}
                         for m in doc.math_items]}
               for doc in random_corpus(random.Random(7))]
    (tmp_path / "random.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    loaded = [load_corpus(fixture_paths["corpus"]), load_corpus(tmp_path / "random.jsonl")]
    assert tokenize_calls == []
    sentences = [s for corpus in loaded for doc in corpus for s in doc.sentences]
    assert len(sentences) > 20
    assert [s.tokens for s in sentences] == [tuple(tokenize(s.text)) for s in sentences]
    assert tokenize_calls == [s.text for s in sentences]  # on access


# --------------------------------------------------------------------------
# randomized round trips

_SOURCES = ["a+b", "x^2", "\\frac{a}{b}", "(-1)^{n-1}", "P(A|B)"]

_sentences = st.lists(st.text(max_size=30), max_size=4)
_cites = st.lists(st.text(min_size=1, max_size=12), max_size=3)
_math = st.lists(
    st.tuples(st.sampled_from(_SOURCES), st.text(max_size=20), _cites),
    max_size=3,
)
_docs = st.lists(st.tuples(st.text(max_size=20), _sentences, _math), max_size=4)


@given(docs=_docs)
def test_random_corpora_round_trip(docs, tmp_path_factory):
    records = []
    for i, (title_suffix, sentences, math) in enumerate(docs):
        records.append({
            "id": f"d{i}",
            "title": f"Doc {i} {title_suffix}".strip(),
            "leading_paragraph": "lead paragraph",
            "sentences": sentences,
            "math": [{"source": s, "context": c, "cites": cites}
                     for s, c, cites in math],
        })
    path = tmp_path_factory.mktemp("roundtrip") / "corpus.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    if not records:
        with pytest.raises(EmptyCorpus):
            load_corpus(path)
        return
    corpus = load_corpus(path)
    assert len(corpus) == len(records)
    for doc, record in zip(corpus, records):
        assert (doc.id, doc.title, doc.leading_paragraph) == (
            record["id"], record["title"], record["leading_paragraph"])
        assert [(s.text, s.position) for s in doc.sentences] == list(
            zip(record["sentences"], itertools.count()))
        assert [(m.source, m.context, list(m.cites)) for m in doc.math_items] == [
            (m["source"], m["context"], m["cites"]) for m in record["math"]]
