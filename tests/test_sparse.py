"""Inverted index construction, BM25 scoring, search, and persistence."""

import json
import math
import mmap
import os
import re
import struct
import tracemalloc
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqe import cli, sparse
from cqe.corpus import Corpus, Passage, tokenize
from cqe.sparse import (
    BM25Config,
    InvertedIndex,
    bm25_score,
    build_index,
    load_index,
    save_index,
    search_sparse,
)


def make_corpus(texts):
    return Corpus([Passage(f"p{i}", t) for i, t in enumerate(texts)])


def random_corpus(rng, n_docs, vocab_size=20, min_len=3, max_len=25):
    words = [f"w{i}" for i in range(vocab_size)]
    texts = [
        " ".join(words[j] for j in rng.integers(0, vocab_size, size=rng.integers(min_len, max_len)))
        for _ in range(n_docs)
    ]
    return make_corpus(texts)


def exhaustive_ranking(index, query_tokens):
    """Every passage scored by bm25_score, positive scores only, in the promised order."""
    scored = [(pid, bm25_score(index, query_tokens, pid)) for pid in index.ids]
    return sorted(((d, s) for d, s in scored if s > 0), key=lambda it: (-it[1], it[0]))


def reference_bm25(texts, query_tokens, doc_idx, k1=0.82, b=0.68):
    """Straight evaluation of the scoring formula from raw texts."""
    token_lists = [tokenize(t) for t in texts]
    n = len(token_lists)
    avgdl = sum(len(toks) for toks in token_lists) / n
    tf = Counter(token_lists[doc_idx])
    dl = len(token_lists[doc_idx])
    score = 0.0
    for term, mult in Counter(query_tokens).items():
        if tf[term] == 0:
            continue
        df = sum(1 for toks in token_lists if term in toks)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        sat = tf[term] * (k1 + 1) / (tf[term] + k1 * (1 - b + b * dl / avgdl))
        score += mult * idf * sat
    return score


class TestBM25Config:
    def test_defaults(self):
        cfg = BM25Config()
        assert cfg.k1 == 0.82 and cfg.b == 0.68

    def test_bounds(self):
        with pytest.raises(ValueError):
            BM25Config(k1=-0.1)
        with pytest.raises(ValueError):
            BM25Config(b=1.5)
        for k1 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="k1 must be finite"):
                BM25Config(k1=k1)


def pairs(index, term):
    """The (ordinal, tf) postings of ``term``, as Python ints."""
    ordinals, tfs = index.term_postings(term)
    return list(zip(ordinals.tolist(), tfs.tolist()))


class TestBuildIndex:
    def test_single_passage_counts(self):
        index = build_index(make_corpus(["a a b"]))
        assert pairs(index, "a") == [(0, 2)]
        assert pairs(index, "b") == [(0, 1)]
        assert index.avg_doc_length == 3.0

    def test_average_length(self):
        index = build_index(make_corpus(["x y", "x y z w"]))
        assert index.avg_doc_length == 3.0

    def test_postings_match_naive_counts(self):
        rng = np.random.default_rng(7)
        corpus = random_corpus(rng, 5)
        index = build_index(corpus)
        texts = [p.text for p in corpus]
        expected = {}
        for i, text in enumerate(texts):
            for term, tf in Counter(tokenize(text)).items():
                expected.setdefault(term, []).append((i, tf))
        assert {term: pairs(index, term) for term in expected} == expected
        assert index.term_count == len(expected)
        assert index.doc_lengths.tolist() == [len(tokenize(t)) for t in texts]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index(Corpus([]))


def reference_build_index(corpus, config=None):
    """build_index as first written: a Counter per passage, then one stable argsort of the postings."""
    config = config or BM25Config()
    ids = []
    doc_lengths = []
    distinct = []  # distinct terms per passage
    term_ids = defaultdict()
    term_ids.default_factory = term_ids.__len__
    flat_terms = []
    flat_tfs = []
    for passage in corpus:
        tokens = tokenize(passage.text)
        counts = Counter(tokens)
        ids.append(passage.id)
        doc_lengths.append(len(tokens))
        distinct.append(len(counts))
        flat_terms.extend(map(term_ids.__getitem__, counts))
        flat_tfs.extend(counts.values())
    terms = sorted(term_ids)
    term_rank = np.empty(len(terms), dtype=np.intp)
    term_rank[[term_ids[t] for t in terms]] = np.arange(len(terms))
    keys = term_rank[np.asarray(flat_terms, dtype=np.intp)]
    order = np.argsort(keys, kind="stable")
    ordinals = np.repeat(np.arange(len(ids), dtype=sparse.U32), distinct)[order]
    tfs = np.asarray(flat_tfs, dtype=sparse.U32)[order]
    ends = np.cumsum(np.bincount(keys, minlength=len(terms))).tolist()
    spans = dict(zip(terms, map(slice, [0, *ends], ends)))
    return InvertedIndex(ids, doc_lengths, spans, ordinals, tfs, config)


def saved_bytes(index, directory) -> bytes:
    path = os.path.join(directory, "index.bin")
    save_index(index, path)
    with open(path, "rb") as fh:
        return fh.read()


# Words in mixed case, and separators from ASCII punctuation to a lone surrogate:
# every non-ASCII character splits tokens.
ORACLE_WORDS = st.sampled_from(["a", "A", "b", "Ab", "aB", "x9", "X9", "9", "07", "zz"])
ORACLE_SEPARATORS = st.sampled_from([" ", "-", "\t", ".\n", "\u00e9", "\u212a", "\u00df", "\u00b2", "\ud800"])
ORACLE_TEXTS = (
    st.lists(st.tuples(ORACLE_WORDS, ORACLE_SEPARATORS), max_size=10).map(lambda pairs: "".join(sum(pairs, ())))
    | st.sampled_from(["", "...", "\u00e9\u00e9", "\u212a"])  # no tokens
    | st.text(max_size=12)
)


class TestBuildMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(ORACLE_TEXTS, min_size=1, max_size=12))
    def test_same_bytes_as_counter_build(self, tmp_path_factory, texts):
        corpus = make_corpus(texts)
        directory = tmp_path_factory.mktemp("oracle")
        got = build_index(corpus)
        assert got.doc_lengths.tolist() == [len(tokenize(t)) for t in texts]
        assert saved_bytes(got, directory) == saved_bytes(reference_build_index(corpus), directory)

    @pytest.mark.parametrize(
        "texts",
        [
            ["", "...", "\u00e9 \u212a"],  # no passage has a token
            [""],
            ["Red red RED fox, red!"],  # one passage
        ],
    )
    def test_named_corpora(self, tmp_path, texts):
        corpus = make_corpus(texts)
        got = build_index(corpus)
        want = reference_build_index(corpus)
        assert saved_bytes(got, tmp_path) == saved_bytes(want, tmp_path)
        assert (got.term_count, got.doc_lengths.tolist(), got.avg_doc_length) == (
            want.term_count, want.doc_lengths.tolist(), want.avg_doc_length,
        )

    def test_tokenless_corpus_builds_an_empty_index(self):
        index = build_index(make_corpus(["", "?!"]))
        assert (index.term_count, index.doc_lengths.tolist(), index.avg_doc_length) == (0, [0, 0], 0.0)
        assert len(index.ordinals) == len(index.tfs) == 0
        assert list(search_sparse(index, ["a"], 3)) == []


class TestBM25Score:
    def test_no_overlap_scores_zero(self):
        index = build_index(make_corpus(["a b c", "d e f"]))
        assert bm25_score(index, ["x", "y"], "p0") == 0.0

    def test_single_document_closed_form(self):
        index = build_index(make_corpus(["the quick fox"]))
        # N=1, df=1 for every term, tf=1, len=avglen so saturation is 1
        expected = 3 * math.log(1 + 0.5 / 1.5)
        assert bm25_score(index, ["the", "quick", "fox"], "p0") == pytest.approx(expected, rel=1e-12)

    def test_matches_reference_formula(self):
        texts = ["cat sat on the mat", "the cat ate", "dogs bark at the cat cat"]
        index = build_index(make_corpus(texts))
        query = ["cat", "mat"]
        for i in range(3):
            assert bm25_score(index, query, f"p{i}") == pytest.approx(
                reference_bm25(texts, query, i), rel=1e-12
            )

    def test_unknown_passage(self):
        index = build_index(make_corpus(["a"]))
        with pytest.raises(ValueError, match="nope"):
            bm25_score(index, ["a"], "nope")

    def test_additive_over_query_union(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, 8)
        index = build_index(corpus)
        q1 = ["w1", "w2", "w2"]
        q2 = ["w2", "w5"]
        for pid in ["p0", "p3", "p7"]:
            assert bm25_score(index, q1 + q2, pid) == pytest.approx(
                bm25_score(index, q1, pid) + bm25_score(index, q2, pid), rel=1e-12, abs=1e-15
            )

    def test_multiplicity_increment_adds_one_term(self):
        texts = ["a a b c", "b c d", "a d e"]
        index = build_index(make_corpus(texts))
        base = ["a", "b"]
        for pid in ["p0", "p1", "p2"]:
            delta = bm25_score(index, base + ["a"], pid) - bm25_score(index, base, pid)
            assert delta == pytest.approx(bm25_score(index, ["a"], pid), rel=1e-12, abs=1e-15)


class TestSearchSparse:
    def test_no_indexed_terms_gives_empty(self):
        index = build_index(make_corpus(["a b", "c d"]))
        assert len(search_sparse(index, ["zz"], 10)) == 0

    def test_k_larger_than_matches(self):
        index = build_index(make_corpus(["a b", "a c", "d e"]))
        result = search_sparse(index, ["a"], 50)
        assert sorted(result.docids()) == ["p0", "p1"]

    def test_matches_exhaustive_scoring(self):
        rng = np.random.default_rng(11)
        corpus = random_corpus(rng, 20)
        index = build_index(corpus)
        for _ in range(10):
            query = [f"w{j}" for j in rng.integers(0, 20, size=rng.integers(1, 5))]
            result = search_sparse(index, query, 5)
            exhaustive = [(p.id, bm25_score(index, query, p.id)) for p in corpus]
            exhaustive = [(d, s) for d, s in exhaustive if s > 0]
            exhaustive.sort(key=lambda it: (-it[1], it[0]))
            assert result.docids() == [d for d, _ in exhaustive[:5]]
            for entry, (_, s) in zip(result, exhaustive):
                assert entry.score == pytest.approx(s, rel=1e-9)

    def test_prefix_of_full_ranking(self):
        rng = np.random.default_rng(13)
        corpus = random_corpus(rng, 15)
        index = build_index(corpus)
        query = ["w0", "w1", "w2"]
        full = search_sparse(index, query, len(corpus))
        head = search_sparse(index, query, 4)
        assert head.docids() == full.docids()[:4]

    def test_invalid_k(self):
        index = build_index(make_corpus(["a"]))
        with pytest.raises(ValueError):
            search_sparse(index, ["a"], 0)


class TestTopKTies:
    # Corpus order differs from id order ("m10" < "m2" < "m30" < "m7"), so
    # only the ascending-id rule can pick which tied passages make the cut.
    TEXTS = [
        ("m7", "a c c"),
        ("t1", "a a c"),
        ("m10", "a c c"),
        ("z0", "c c c"),
        ("m2", "a c c"),
        ("low", "a c c c c"),
        ("t0", "a a c"),
        ("m30", "a c c"),
    ]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 10])
    def test_ties_straddling_kth_score(self, k):
        index = build_index(Corpus([Passage(pid, text) for pid, text in self.TEXTS]))
        full = exhaustive_ranking(index, ["a"])
        assert [d for d, _ in full] == ["t0", "t1", "m10", "m2", "m30", "m7", "low"]
        got = search_sparse(index, ["a"], k)
        assert [(e.docid, e.score) for e in got] == full[:k]
        assert [e.rank for e in got] == list(range(1, min(k, 7) + 1))

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_all_scores_equal(self, k):
        ids = ["e4", "e10", "e0", "e3", "e1"]
        index = build_index(Corpus([Passage(pid, "same words here") for pid in ids]))
        got = search_sparse(index, ["words"], k)
        assert got.docids() == sorted(ids)[:k]
        assert len({e.score for e in got}) == 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_search_equals_exhaustive_bm25(data):
    # A four-word vocabulary makes equal scores common.
    vocab = ["a", "b", "c", "d"]
    texts = data.draw(
        st.lists(st.lists(st.sampled_from(vocab), min_size=1, max_size=6), min_size=1, max_size=12)
    )
    ids = data.draw(st.permutations([f"d{i}" for i in range(len(texts))]))
    query = data.draw(st.lists(st.sampled_from(vocab + ["zz"]), min_size=1, max_size=5))
    k = data.draw(st.integers(1, len(texts) + 2))
    index = build_index(Corpus([Passage(pid, " ".join(t)) for pid, t in zip(ids, texts)]))
    got = search_sparse(index, query, k)
    assert [(e.docid, e.score) for e in got] == exhaustive_ranking(index, query)[:k]


def post_payload_offset(raw: bytes) -> int:
    """Byte offset of the POST section's payload in a saved index."""
    offset = 12
    while raw[offset : offset + 4] != b"POST":
        (length,) = struct.unpack_from("<Q", raw, offset + 4)
        offset += 12 + length
    return offset + 12


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        corpus = random_corpus(rng, 12)
        index = build_index(corpus, BM25Config(k1=1.1, b=0.4))
        path = str(tmp_path / "index.bin")
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.ids == index.ids
        assert loaded.doc_lengths.tolist() == index.doc_lengths.tolist()
        terms = {t for p in corpus for t in tokenize(p.text)}
        assert loaded.term_count == index.term_count == len(terms)
        assert all(pairs(loaded, t) == pairs(index, t) for t in terms)
        assert loaded.config == index.config
        assert loaded.avg_doc_length == pytest.approx(index.avg_doc_length, rel=1e-12)
        query = ["w2", "w3", "w3"]
        before = search_sparse(index, query, 10)
        after = search_sparse(loaded, query, 10)
        assert [(e.docid, e.score) for e in before] == [(e.docid, e.score) for e in after]

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_index(str(path))

    def test_save_load_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        index = build_index(random_corpus(rng, 30, vocab_size=40))
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_index(index, str(first))
        save_index(load_index(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("size", [0, 7, 11, 20, 40, 150, 190])
    def test_truncated_file_rejected(self, tmp_path, size):
        path = tmp_path / "index.bin"
        save_index(build_index(make_corpus(["a b", "a c"])), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:size])
        with pytest.raises(ValueError, match=str(path)):
            load_index(str(path))

    def test_trailing_bytes_in_section_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        save_index(build_index(make_corpus(["a b", "a c"])), str(path))
        raw = bytearray(path.read_bytes())
        (length,) = struct.unpack_from("<Q", raw, 16)  # CONF is the first section
        struct.pack_into("<Q", raw, 16, length + 4)
        raw[28 + length : 28 + length] = b"\0" * 4
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="trailing"):
            load_index(str(path))

    @staticmethod
    def with_tail(index, path, tail):
        """``index`` saved to ``path`` with the bytes ``tail`` appended to the file; the path."""
        save_index(index, str(path))
        path.write_bytes(path.read_bytes() + tail)
        return str(path)

    def test_unknown_sections_are_skipped(self, tmp_path):
        index = build_index(make_corpus(["a b", "a c"]))
        tail = b"XTRA" + struct.pack("<Q", 9) + b"\xff" * 9 + b"NONE" + struct.pack("<Q", 0)
        loaded = load_index(self.with_tail(index, tmp_path / "index.bin", tail))
        assert (loaded.ids, loaded.config) == (index.ids, index.config)
        assert search_sparse(loaded, ["a", "c"], 5) == search_sparse(index, ["a", "c"], 5)

    def test_repeated_section_is_refused(self, tmp_path):
        # The IDMP, DLEN and POST sections of a 100-passage index appended to a 2-passage one:
        # either copy would load. An unknown tag may not repeat either.
        other = tmp_path / "other.bin"
        save_index(build_index(make_corpus([f"w{i} x" for i in range(100)])), str(other))
        raw = other.read_bytes()
        (conf_length,) = struct.unpack_from("<Q", raw, 16)  # CONF is the first section
        index = build_index(make_corpus(["a b", "a c"]))
        for tail, tag in ((raw[24 + conf_length :], "IDMP"), (2 * (b"XTRA" + struct.pack("<Q", 0)), "XTRA")):
            path = self.with_tail(index, tmp_path / "index.bin", tail)
            with pytest.raises(ValueError, match=re.escape(f"{path}: duplicate section {tag}")):
                load_index(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "index.bin"
        save_index(build_index(make_corpus(["a b", "a c"])), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"\x02\x00\x00\x00p1", b"\x02\x00\x00\x00p0"))
        with pytest.raises(ValueError, match="section IDMP: duplicate passage id 'p0'"):
            load_index(str(path))

    @pytest.mark.parametrize("first, second", [(2, 1), (1, 1), (1, 0)])
    def test_bad_ordinals_rejected(self, tmp_path, first, second):
        # Term "a" comes first in the POST section with postings [(0, 1), (1, 1)].
        path = tmp_path / "index.bin"
        save_index(build_index(make_corpus(["a b", "a c"])), str(path))
        raw = bytearray(path.read_bytes())
        pairs = post_payload_offset(raw) + 8 + 4 + 1 + 8
        struct.pack_into("<I", raw, pairs, first)
        struct.pack_into("<I", raw, pairs + 8, second)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="term 'a'"):
            load_index(str(path))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_file_changed_while_being_read(self, tmp_path, monkeypatch, capsys, delta):
        path = str(tmp_path / "index.bin")
        save_index(build_index(make_corpus(["a b", "a c"])), path)

        def fstat(fd):  # a size the read will not find, as if the file grew or shrank after fstat
            return SimpleNamespace(st_size=os.fstat(fd).st_size + delta)

        monkeypatch.setattr(sparse, "os", SimpleNamespace(fstat=fstat))
        with pytest.raises(ValueError, match=re.escape(f"{path}: changed while being read") + "$"):
            load_index(path)
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"qid": "q", "text": "a"}) + "\n")
        capsys.readouterr()
        argv = ["search-sparse", "--index", path, "--queries", str(queries), "--output", str(tmp_path / "run.txt")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: changed while being read\n"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_flipped_byte_loads_or_fails_cleanly(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("flip") / "index.bin"
        save_index(build_index(make_corpus(["a b", "a c"])), str(path))
        raw = bytearray(path.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(raw))
        try:
            index = load_index(str(path))
        except ValueError as exc:
            assert str(exc).startswith(str(path))
            return
        search_sparse(index, ["a", "b", "c"], 5)


def write_index(path, postings, ids=("p0", "p1", "p2")) -> str:
    """An index file written by hand; ``postings`` lists (term, [(ordinal, tf), ...]) in file order."""

    def text(value):
        raw = value.encode()
        return struct.pack("<I", len(raw)) + raw

    idmp = struct.pack("<Q", len(ids)) + b"".join(map(text, ids))
    dlen = struct.pack(f"<Q{len(ids)}I", len(ids), *[3] * len(ids))
    post = struct.pack("<Q", len(postings)) + b"".join(
        text(term) + struct.pack(f"<Q{2 * len(run)}I", len(run), *[v for pair in run for v in pair])
        for term, run in postings
    )
    sections = [(b"CONF", struct.pack("<dd", 0.82, 0.68)), (b"IDMP", idmp), (b"DLEN", dlen), (b"POST", post)]
    body = b"".join(tag + struct.pack("<Q", len(payload)) + payload for tag, payload in sections)
    path.write_bytes(b"CQESPIDX" + struct.pack("<I", 1) + body)
    return str(path)


# Empty runs first, in the middle and last.
EMPTY_RUNS = [("a", []), ("b", [(0, 1), (2, 3)]), ("c", []), ("d", [(1, 2)]), ("e", []), ("f", [])]


class TestFlatPostings:
    @pytest.mark.parametrize(
        "postings",
        [
            EMPTY_RUNS,
            [("a", [(1, 1), (2, 1)]), ("b", [(0, 4)])],  # descending across a term boundary
            [("a", []), ("b", [])],
            [],
        ],
    )
    def test_hand_written_runs_load_and_save_back(self, tmp_path, postings):
        path = write_index(tmp_path / "index.bin", postings)
        index = load_index(path)
        assert index.term_count == len(postings)
        assert {term: pairs(index, term) for term, _ in postings} == dict(postings)
        assert len(index.ordinals) == len(index.tfs) == sum(len(run) for _, run in postings)
        save_index(index, str(tmp_path / "again.bin"))
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "index.bin").read_bytes()

    @pytest.mark.parametrize(
        "postings, term",
        [
            ([("a", [(0, 1), (2, 1)]), ("b", []), ("c", [(3, 1)])], "c"),  # out of range after an empty run
            ([("a", [(0, 1), (2, 1)]), ("b", []), ("c", [(1, 1), (1, 1)])], "c"),
            ([("a", [(0, 1), (2, 1)]), ("b", []), ("c", [(2, 1), (0, 1)])], "c"),
            ([("a", []), ("b", [(0, 1), (2, 1), (1, 1)])], "b"),  # the last posting, after a leading empty run
            ([("a", [(1, 1), (0, 1)]), ("b", []), ("c", [])], "a"),  # before trailing empty runs
            ([("a", [(0, 1)]), ("b", [(1, 1), (5, 1)]), ("c", [])], "b"),
        ],
    )
    def test_bad_run_is_refused_by_its_own_term(self, tmp_path, postings, term):
        path = write_index(tmp_path / "index.bin", postings)
        message = f"{path}: section POST: postings of term {term!r} are out of range or not ascending"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_index(path)

    @pytest.mark.parametrize("block", [1, 2, 5, 1 << 17])
    def test_block_size_leaves_the_columns_unchanged(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(sparse, "_BLOCK_PAIRS", block)
        index = build_index(random_corpus(np.random.default_rng(9), 30, vocab_size=40))
        path = str(tmp_path / "index.bin")
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.spans == index.spans
        assert np.array_equal(loaded.ordinals, index.ordinals) and np.array_equal(loaded.tfs, index.tfs)
        loaded = load_index(write_index(tmp_path / "empty_runs.bin", EMPTY_RUNS))
        assert {term: pairs(loaded, term) for term, _ in EMPTY_RUNS} == dict(EMPTY_RUNS)

    def test_term_postings_are_contiguous_u4_as_built(self, tmp_path):
        corpus = random_corpus(np.random.default_rng(8), 40, vocab_size=60)
        built = build_index(corpus)
        path = str(tmp_path / "index.bin")
        save_index(built, path)
        loaded = load_index(path)
        terms = {t for p in corpus for t in tokenize(p.text)}
        for index in (built, loaded):
            assert index.term_count == len(terms)
            for term in terms:
                for got, want in zip(index.term_postings(term), built.term_postings(term)):
                    assert got.dtype == np.dtype("<u4") and got.flags.c_contiguous
                    assert np.array_equal(got, want)
        assert loaded.term_postings("absent") is None

    def test_load_peak_memory_is_bounded_by_file_size(self, tmp_path):
        # Whole-index temporaries (one join of every pair run, interleaved
        # copies, an int64 term number per posting) took the peak past 5.9x.
        # The file is read into an mmap, which tracemalloc does not see, so
        # the traced bound is one file size below the 5x that held when the
        # read went to the heap.
        rng = np.random.default_rng(0)
        ranks = rng.zipf(1.2, size=(5000, 50)) % 5000
        corpus = Corpus([Passage(f"doc{i}", " ".join(f"w{j}" for j in row)) for i, row in enumerate(ranks)])
        path = str(tmp_path / "index.bin")
        save_index(build_index(corpus), path)
        tracemalloc.start()
        try:
            load_index(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * os.path.getsize(path)

    def test_loaded_arrays_hold_no_file_buffer(self, tmp_path):
        # A view into the read buffer would pin the whole file for the index's lifetime.
        path = str(tmp_path / "index.bin")
        save_index(build_index(random_corpus(np.random.default_rng(4), 30)), path)
        index = load_index(path)
        for array in (index.ordinals, index.tfs, index.doc_lengths):
            owner = array
            while owner is not None:
                assert not isinstance(owner, (mmap.mmap, bytes, memoryview)), type(owner)
                owner = getattr(owner, "base", None)
