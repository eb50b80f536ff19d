"""Corpus loading and tokenization."""

import json
import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqe.corpus import (
    WHITESPACE,
    Corpus,
    Passage,
    check_ids,
    load_corpus,
    read_jsonl,
    save_corpus,
    tokenize,
    write_jsonl,
)


def regex_tokens(text):
    """The tokenizer's rule as a regex: lowercased maximal runs of ASCII letters and digits."""
    return [m.group(0).lower() for m in re.finditer(r"[A-Za-z0-9]+", text)]


class TestTokenize:
    def test_question_splits_on_punctuation(self):
        assert tokenize("why did it start?") == ["why", "did", "it", "start"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_hyphen_and_digits(self):
        assert tokenize("Neolithic-Revolution 2") == ["neolithic", "revolution", "2"]

    def test_runs_of_separators(self):
        assert tokenize("a -- b\t\tc...d") == ["a", "b", "c", "d"]

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=st.characters()) | st.text(alphabet=st.characters(max_codepoint=0x2FF)))
    def test_matches_regex_oracle(self, text):
        # st.characters() draws every code point, lone surrogates included
        assert tokenize(text) == regex_tokens(text)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("\u0130stanbul", ["stanbul"]),  # dotted capital I lowercases to two characters
            ("\u212aelvin", ["elvin"]),  # the Kelvin sign lowercases to an ASCII k
            ("\uff21\uff22\uff23 abc", ["abc"]),  # fullwidth letters
            ("Stra\u00dfe", ["stra", "e"]),
            ("\ufb01ne", ["ne"]),  # the fi ligature
            ("\u00b23", ["3"]),  # superscript two
            ("a\u0663\u0664b", ["a", "b"]),  # Arabic-Indic digits
            ("a\x00b", ["a", "b"]),
            ("a\tb", ["a", "b"]),
            ("x\ud800Y", ["x", "y"]),  # a lone surrogate, legal in JSON as "\ud800"
        ],
    )
    def test_non_ascii_characters_separate(self, text, expected):
        assert tokenize(text) == regex_tokens(text) == expected

    def test_idempotent_on_joined_output(self):
        rng = np.random.default_rng(42)
        alphabet = string.ascii_letters + string.digits + " .,;:!?-_'\"()"
        for _ in range(200):
            n = int(rng.integers(0, 40))
            s = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
            toks = tokenize(s)
            assert tokenize(" ".join(toks)) == toks


class TestPassage:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError, match="non-empty"):
            Passage("", "text")

    def test_rejects_whitespace_id(self):
        with pytest.raises(ValueError, match="whitespace"):
            Passage("a b", "text")


class TestCorpus:
    def test_lookup_and_count(self):
        c = Corpus([Passage("p1", "one"), Passage("p2", "two")])
        assert len(c) == 2
        assert c["p1"].text == "one"
        assert "p2" in c and "p3" not in c

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="p1"):
            Corpus([Passage("p1", "a"), Passage("p1", "b")])

    def test_unknown_id_lookup(self):
        c = Corpus([Passage("p1", "a")])
        with pytest.raises(KeyError, match="nope"):
            c["nope"]


class TestCheckIds:
    def test_whitespace_pass_agrees_with_the_regex_on_every_character(self):
        chars = [chr(i) for i in range(0x110000)]
        spaces = [c for c in chars if WHITESPACE.search(c)]
        check_ids(["".join(c for c in chars if not WHITESPACE.search(c)), "b"], "passage id")
        for c in spaces:
            with pytest.raises(ValueError, match=f"^passage id {re.escape(repr(f'b{c}b'))} is empty or contains whitespace$"):
                check_ids(["a", f"b{c}b"], "passage id")

    def test_names_the_first_repeated_id(self):
        with pytest.raises(ValueError, match="^duplicate passage id 'b'$"):
            check_ids(["a", "b", "c", "b", "a"], "passage id")


class TestLoadCorpus:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        return str(path)

    def test_empty_file(self, tmp_path):
        corpus = load_corpus(self._write(tmp_path, []))
        assert len(corpus) == 0

    def test_three_lines_preserve_order(self, tmp_path):
        lines = [json.dumps({"id": f"p{i}", "text": f"text {i}"}) for i in range(3)]
        corpus = load_corpus(self._write(tmp_path, lines))
        assert len(corpus) == 3
        assert [p.id for p in corpus] == ["p0", "p1", "p2"]
        for i in range(3):
            assert corpus[f"p{i}"].text == f"text {i}"

    def test_duplicate_id_names_offender(self, tmp_path):
        lines = [
            json.dumps({"id": "p1", "text": "a"}),
            json.dumps({"id": "p1", "text": "b"}),
        ]
        with pytest.raises(ValueError, match="p1"):
            load_corpus(self._write(tmp_path, lines))

    def test_malformed_line_reports_number(self, tmp_path):
        lines = [json.dumps({"id": "p1", "text": "a"}), "{broken"]
        with pytest.raises(ValueError, match=":2:"):
            load_corpus(self._write(tmp_path, lines))

    def test_missing_field(self, tmp_path):
        with pytest.raises(ValueError, match=":1:"):
            load_corpus(self._write(tmp_path, [json.dumps({"id": "p1"})]))

    def test_empty_id(self, tmp_path):
        with pytest.raises(ValueError):
            load_corpus(self._write(tmp_path, [json.dumps({"id": "", "text": "a"})]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(str(tmp_path / "absent.jsonl"))

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "p0", "text": "a"}\n{"id": "p1", "text": "\xff"}\n')
        with pytest.raises(ValueError, match=f"^{path}:2: invalid UTF-8 at byte 22: invalid start byte$"):
            load_corpus(str(path))

    def test_utf16_is_refused_not_guessed(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes('{"id": "p0", "text": "a"}\n'.encode("utf-16-be"))
        with pytest.raises(ValueError, match=f"^{path}:1: "):
            load_corpus(str(path))

    def test_crlf_lines_parse(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"id": "p0", "text": "a"}\r\n{"id": "p1", "text": "b"}\r\n')
        assert [(p.id, p.text) for p in load_corpus(str(path))] == [("p0", "a"), ("p1", "b")]

    def test_round_trip(self, tmp_path):
        original = Corpus(
            [Passage("p1", "some text"), Passage("p2", "unicode éè"), Passage("p3", "")]
        )
        path = str(tmp_path / "rt.jsonl")
        save_corpus(original, path)
        loaded = load_corpus(path)
        assert [(p.id, p.text) for p in loaded] == [(p.id, p.text) for p in original]


def test_write_jsonl_writes_utf8_lines_that_read_back(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"id": "é1", "text": "東京\n"}, {"id": "b", "n": [1, 2.5, -0.0]}]
    write_jsonl(str(path), iter(rows))
    assert path.read_bytes() == '{"id": "é1", "text": "東京\\n"}\n{"id": "b", "n": [1, 2.5, -0.0]}\n'.encode()
    assert read_jsonl(str(path), dict) == rows
