"""Embedding store IO and exact inner-product search."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqe import dense
from cqe.corpus import WHITESPACE, Corpus, Passage
from cqe.dense import (
    PassageEmbeddingStore,
    load_embeddings,
    save_embeddings,
    search_dense,
    search_dense_many,
)
from cqe.ranking import PassageTable, RankedList, top_k
from cqe.sparse import build_index, search_sparse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def brute_force(store, query):
    """Every row scored in float64 and fully sorted by descending score, then ascending id."""
    scores = store.vectors.astype(np.float64) @ np.asarray(query, dtype=np.float64)
    return sorted(zip(store.ids, scores.tolist()), key=lambda it: (-it[1], it[0]))


def reference_search_dense(store, query, k):
    """Single-query search as it was before blocked scoring: one full matrix-vector product, then top_k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1 or query.shape[0] != store.dim:
        raise ValueError(f"query dimension {query.shape} does not match store dim {store.dim}")
    if not np.isfinite(query).all():
        raise ValueError("query vector contains non-finite values")
    if store.count == 0:
        return RankedList()
    scores = store.vectors.astype(np.float64) @ query
    return top_k(np.arange(store.count), scores, PassageTable(store.ids), k)


def exact(ranked):
    """(id, rank, float.hex of score) per entry: equal only when every score bit is equal."""
    return [(e.docid, e.rank, float.hex(e.score)) for e in ranked]


def random_store(rng, count, dim):
    ids = [f"d{i:03d}" for i in range(count)]
    return PassageEmbeddingStore(ids, rng.standard_normal((count, dim)).astype(np.float32))


class TestStore:
    def test_basic_lookup(self):
        store = PassageEmbeddingStore(["a", "b", "c"], np.arange(12, dtype=np.float32).reshape(3, 4))
        assert store.count == 3 and store.dim == 4
        assert np.array_equal(store.vectors[store.table.rows(["b"])[0]], np.array([4, 5, 6, 7], dtype=np.float32))

    def test_rows_give_each_position(self):
        store = PassageEmbeddingStore(["b", "a", "c"], np.zeros((3, 2), dtype=np.float32))
        assert store.table.rows(["b", "a", "c"]).tolist() == [0, 1, 2]
        assert store.table.rows(["c", "b", "c"]).tolist() == [2, 0, 2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate passage id 'a'"):
            PassageEmbeddingStore(["a", "a"], np.zeros((2, 2), dtype=np.float32))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="count"):
            PassageEmbeddingStore(["a"], np.zeros((2, 2), dtype=np.float32))

    def test_non_finite_rejected(self):
        bad = np.zeros((1, 2), dtype=np.float32)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PassageEmbeddingStore(["a"], bad)


    def test_store_copies_its_input_and_is_read_only(self):
        # The screen's bound reads the norms computed at construction, so the rows must not change after it.
        rng = np.random.default_rng(24)
        vectors = rng.standard_normal((40, 6)).astype(np.float32)
        store = PassageEmbeddingStore([f"d{i:02d}" for i in range(40)], vectors)
        queries = rng.standard_normal((3, 6))
        before = [exact(ranked) for ranked in search_dense_many(store, queries, 5)]
        vectors *= -1000.0  # an alias would now rank these rows last, with norms 1000x the stored ones
        vectors[7] = 1e30
        assert [exact(ranked) for ranked in search_dense_many(store, queries, 5)] == before
        for array in (store.vectors, store.norms):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert np.allclose(store.norms, np.linalg.norm(store.vectors.astype(np.float64), axis=1), rtol=1e-14, atol=0)

    def test_loaded_store_is_read_only(self, tmp_path):
        manifest = str(tmp_path / "s.json")
        save_embeddings(random_store(np.random.default_rng(25), 5, 3), manifest)
        loaded = load_embeddings(manifest)
        with pytest.raises(ValueError, match="read-only"):
            loaded.vectors[1, 2] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            loaded.norms[1] = 0.0


class TestIO:
    def test_empty_store(self, tmp_path):
        store = PassageEmbeddingStore([], np.zeros((0, 4), dtype=np.float32))
        manifest = str(tmp_path / "empty.json")
        save_embeddings(store, manifest)
        loaded = load_embeddings(manifest)
        assert loaded.count == 0 and loaded.dim == 4

    def test_repeated_id_in_the_id_file_is_named(self, tmp_path):
        manifest = str(tmp_path / "s.json")
        save_embeddings(random_store(np.random.default_rng(3), 3, 4), manifest)
        (tmp_path / "s.ids").write_text("d000\nd001\nd000\n")
        with pytest.raises(ValueError, match=re.escape(f"{manifest}: duplicate passage id 'd000'")):
            load_embeddings(manifest)

    def test_three_vectors(self, tmp_path):
        rng = np.random.default_rng(1)
        store = random_store(rng, 3, 4)
        manifest = str(tmp_path / "s.json")
        save_embeddings(store, manifest)
        loaded = load_embeddings(manifest)
        for pid in store.ids:
            (got,), (want,) = loaded.table.rows([pid]), store.table.rows([pid])
            assert np.array_equal(loaded.vectors[got], store.vectors[want])

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(2)
        store = random_store(rng, 10, 8)
        manifest = str(tmp_path / "s.json")
        save_embeddings(store, manifest)
        loaded = load_embeddings(manifest)
        assert loaded.ids == store.ids
        assert loaded.vectors.tobytes() == store.vectors.tobytes()

    def test_size_mismatch_detected(self, tmp_path):
        rng = np.random.default_rng(3)
        store = random_store(rng, 4, 4)
        manifest = str(tmp_path / "s.json")
        save_embeddings(store, manifest)
        declared = json.loads(open(manifest).read())
        declared["dim"] = 8
        open(manifest, "w").write(json.dumps(declared))
        with pytest.raises(ValueError, match="manifest declares"):
            load_embeddings(manifest)

    def test_id_count_mismatch_detected(self, tmp_path):
        rng = np.random.default_rng(4)
        store = random_store(rng, 4, 4)
        manifest = str(tmp_path / "s.json")
        save_embeddings(store, manifest)
        ids_path = str(tmp_path / "s.ids")
        open(ids_path, "a").write("extra\n")
        with pytest.raises(ValueError, match="ids"):
            load_embeddings(manifest)

    @pytest.mark.parametrize("bad_id", ["a b", "", "tab\there", "nbsp\u00a0id"])
    def test_empty_or_whitespace_id_rejected(self, tmp_path, bad_id):
        manifest = str(tmp_path / "s.json")
        save_embeddings(random_store(np.random.default_rng(5), 3, 2), manifest)
        ids_path = str(tmp_path / "s.ids")
        with open(ids_path, "w", encoding="utf-8") as fh:
            fh.write(f"d000\n{bad_id}\nd002\n")
        with pytest.raises(ValueError, match=f"{re.escape(manifest)}: passage id .* is empty or contains whitespace"):
            load_embeddings(manifest)
        with pytest.raises(ValueError, match="whitespace"):
            PassageEmbeddingStore(["d000", bad_id], np.zeros((2, 2), dtype=np.float32))

    def test_blob_size_is_checked_before_anything_is_allocated(self, tmp_path):
        manifest = str(tmp_path / "s.json")
        save_embeddings(random_store(np.random.default_rng(6), 3, 4), manifest)
        open(manifest, "w").write(json.dumps({"dim": 4, "count": 2**50, "dtype": "f32le"}))  # 32 PiB of float64
        with pytest.raises(ValueError, match=f"holds 12 floats, manifest declares {2**50}x4$"):
            load_embeddings(manifest)

    def test_bad_dtype_rejected(self, tmp_path):
        manifest = str(tmp_path / "s.json")
        open(manifest, "w").write(json.dumps({"dim": 2, "count": 0, "dtype": "f64le"}))
        with pytest.raises(ValueError, match="dtype"):
            load_embeddings(manifest)


def load_or_error(manifest, table=None):
    """The store ``load_embeddings`` gives, or the text of the ValueError it raises."""
    try:
        return load_embeddings(manifest, table)
    except ValueError as exc:
        return str(exc)


class TestSharedTable:
    """A store loaded with the index's table keeps it exactly when its ids file holds the index's ids."""

    def index_and_store(self, tmp_path, count=12, dim=3):
        ids = [f"p{(i * 5) % count:02d}" for i in range(count)]  # row order is not id order
        index = build_index(Corpus([Passage(pid, f"w{i % 3} common") for i, pid in enumerate(ids)]))
        manifest = str(tmp_path / "s.json")
        save_embeddings(PassageEmbeddingStore(ids, np.random.default_rng(31).standard_normal((count, dim))), manifest)
        return index, manifest

    def test_matching_ids_share_the_index_table(self, tmp_path):
        index, manifest = self.index_and_store(tmp_path)
        store = load_embeddings(manifest, index.table)
        assert store.table is index.table and store.ids is index.ids
        query = np.ones(store.dim)
        assert exact(search_dense(store, query, 5)) == exact(search_dense(load_embeddings(manifest), query, 5))
        search_sparse(index, ["common"], 5)
        assert store.table.ranks is index.table.ranks  # one id-rank array, built by whichever search came first
        assert store.table.rows(index.ids[3:6]).tolist() == [3, 4, 5]

    @pytest.mark.parametrize(
        "case",
        ["reordered id", "changed id", "no trailing newline", "crlf", "invalid utf-8", "duplicate id", "wrong count"],
    )
    def test_other_ids_load_as_without_the_table(self, case, tmp_path):
        index, manifest = self.index_and_store(tmp_path)
        path = tmp_path / "s.ids"
        lines = path.read_bytes().split(b"\n")[:-1]
        edit = {
            "reordered id": lambda: lines[1:2] + lines[:1] + lines[2:],
            "changed id": lambda: [*lines[:4], b"q99", *lines[5:]],
            "no trailing newline": lambda: lines,
            "crlf": lambda: [line + b"\r" for line in lines],
            "invalid utf-8": lambda: [*lines[:2], b"p\xff", *lines[3:]],
            "duplicate id": lambda: [*lines[:2], lines[0], *lines[3:]],
            "wrong count": lambda: lines[:-1],
        }[case]()
        path.write_bytes(b"\n".join(edit) + (b"" if case == "no trailing newline" else b"\n"))
        want, got = load_or_error(manifest), load_or_error(manifest, index.table)
        if isinstance(want, str):
            assert case in ("invalid utf-8", "duplicate id", "wrong count")
            assert got == want
            return
        assert got.ids == want.ids
        assert (got.table is index.table) == (case == "crlf")  # text-mode reads see "\r\n" as "\n"
        queries = np.random.default_rng(32).standard_normal((4, got.dim))
        for mine, theirs in zip(search_dense_many(got, queries, 6), search_dense_many(want, queries, 6)):
            assert exact(mine) == exact(theirs)

    def test_load_with_a_matching_table_builds_no_second_id_list(self, tmp_path):
        count = 20_000
        ids = [f"p{i:06d}" for i in range(count)]
        manifest = str(tmp_path / "s.json")
        save_embeddings(PassageEmbeddingStore(ids, np.ones((count, 1), dtype=np.float32)), manifest)
        table = PassageTable(load_embeddings(manifest).ids)
        ids_bytes = sys.getsizeof(ids) + sum(map(sys.getsizeof, ids))
        peaks = []
        for given_table in (table, None):
            tracemalloc.start()
            try:
                store = load_embeddings(manifest, given_table)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert store.ids == ids and peaks[0] < ids_bytes < peaks[1]  # without the table, the load reads the ids


class TestSearchDense:
    def test_orthonormal_rows(self):
        store = PassageEmbeddingStore(["a", "b", "c"], np.eye(3, dtype=np.float32))
        result = search_dense(store, np.array([0.0, 1.0, 0.0]), 3)
        assert result.entries[0].docid == "b"
        assert result.entries[0].score == 1.0
        assert result.entries[0].rank == 1

    def test_zero_query_ties_break_by_id(self):
        rng = np.random.default_rng(5)
        store = random_store(rng, 6, 4)
        result = search_dense(store, np.zeros(4), 6)
        assert result.docids() == sorted(store.ids)
        assert all(e.score == 0.0 for e in result)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        store = random_store(rng, 50, 16)
        for _ in range(10):
            query = rng.standard_normal(16)
            result = search_dense(store, query, 10)
            scores = store.vectors.astype(np.float64) @ query
            expected = sorted(zip(store.ids, scores), key=lambda it: (-it[1], it[0]))[:10]
            assert result.docids() == [d for d, _ in expected]
            for entry, (_, s) in zip(result, expected):
                assert entry.score == s

    def test_k_exceeding_count_returns_all(self):
        rng = np.random.default_rng(7)
        store = random_store(rng, 5, 3)
        assert len(search_dense(store, rng.standard_normal(3), 100)) == 5

    def test_query_scaling_preserves_ranking(self):
        rng = np.random.default_rng(8)
        store = random_store(rng, 30, 8)
        query = rng.standard_normal(8)
        base = search_dense(store, query, 30)
        scaled = search_dense(store, 2.5 * query, 30)
        assert base.docids() == scaled.docids()
        for e_base, e_scaled in zip(base, scaled):
            assert e_scaled.score == pytest.approx(2.5 * e_base.score, rel=1e-12)

    def test_full_ranking_is_totally_ordered(self):
        rng = np.random.default_rng(9)
        store = random_store(rng, 40, 4)
        result = search_dense(store, rng.standard_normal(4), 40)
        for prev, cur in zip(result.entries, result.entries[1:]):
            assert prev.score > cur.score or (
                prev.score == cur.score and prev.docid < cur.docid
            )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        store = random_store(rng, 3, 4)
        with pytest.raises(ValueError, match="dimension"):
            search_dense(store, np.zeros(5), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        store = random_store(np.random.default_rng(11), 3, 4)
        query = np.zeros(4)
        query[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            search_dense(store, query, 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_ties_straddling_kth_score(self, k):
        # Rows 1, 3, 4 and 6 are equal, so they tie at ranks 3..6; row order
        # differs from id order ("r10" < "r2" < "r5" < "r9").
        rows = [[0.5, 0.0], [0.25, 0.25], [1.0, 0.0], [0.25, 0.25], [0.25, 0.25], [0.0, 0.0], [0.25, 0.25], [0.75, 0.0]]
        ids = ["a", "r9", "c", "r2", "r10", "z", "r5", "b"]
        store = PassageEmbeddingStore(ids, np.array(rows, dtype=np.float32))
        query = np.array([1.0, 1.0])
        full = brute_force(store, query)
        assert [d for d, _ in full] == ["c", "b", "a", "r10", "r2", "r5", "r9", "z"]
        got = search_dense(store, query, k)
        assert [(e.docid, e.score) for e in got] == full[:k]
        assert [e.rank for e in got] == list(range(1, min(k, 8) + 1))

    @pytest.mark.parametrize("k", [1, 4, 7, 20])
    def test_all_scores_equal(self, k):
        ids = [f"s{i}" for i in (4, 10, 0, 3, 1, 12, 7)]
        store = PassageEmbeddingStore(ids, np.ones((7, 3), dtype=np.float32))
        got = search_dense(store, np.array([0.5, -1.0, 2.0]), k)
        assert got.docids() == sorted(ids)[:k]
        assert {e.score for e in got} == {1.5}

    def test_loaded_store_holds_one_float32_matrix_and_float64_norms(self, tmp_path):
        count, dim = 10_000, 128  # a float64 store alone would be 1.97x the float32 matrix and norms here
        manifest = str(tmp_path / "s.json")
        save_embeddings(random_store(np.random.default_rng(12), count, dim), manifest)
        tracemalloc.start()
        try:
            store = load_embeddings(manifest)
            search_dense(store, np.ones(dim), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.vectors.dtype == np.float32 and store.vectors.flags.c_contiguous
        assert store.norms.dtype == np.float64 and store.norms.shape == (count,)
        arrays = [name for name, value in vars(store).items() if isinstance(value, np.ndarray)]
        assert sorted(arrays) == ["norms", "vectors"] and store.table.ranks.dtype.kind != "f"
        ids_bytes = sys.getsizeof(store.ids) + sum(map(sys.getsizeof, store.ids))
        assert peak <= 1.5 * (4 * count * dim + 8 * count) + ids_bytes


class TestSearchDenseMany:
    """Blocked multi-query scoring against the one-product-per-query reference, bit for bit.

    Block rows are patched down to ROW_ALIGN so small stores span several
    blocks while every matrix-vector product stays below the size at which
    the BLAS splits it across threads.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 8),
        st.sampled_from([1, 7, 8, 9, 17]),
        st.integers(1, 320),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_matches_reference_per_query(self, count, dim, n_queries, k, seed, coarse):
        rng = np.random.default_rng(seed)
        # Coarse values repeat rows and scores, so ties straddle the cut; ids are shuffled
        # so row order is not id order.
        vectors = rng.integers(-2, 3, (count, dim)) if coarse else rng.standard_normal((count, dim))
        ids = [f"p{i}" for i in rng.permutation(count)]
        store = PassageEmbeddingStore(ids, vectors.astype(np.float32))
        queries = rng.integers(-2, 3, (n_queries, dim)) * 0.5 if coarse else rng.standard_normal((n_queries, dim))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "BLOCK_BYTES", 1)
            got = search_dense_many(store, queries, k)
        assert len(got) == n_queries
        for query, result in zip(queries, got):
            assert exact(result) == exact(reference_search_dense(store, query, k))

    def test_ties_straddle_the_cut_in_every_block(self, monkeypatch):
        monkeypatch.setattr(dense, "BLOCK_BYTES", 1)
        count = 3 * dense.ROW_ALIGN + 5
        rows = np.zeros((count, 2), dtype=np.float32)
        rows[::3] = [1.0, 1.0]  # a third of the rows tie at the top score, in all three blocks
        store = PassageEmbeddingStore([f"d{(i * 37) % count:04d}" for i in range(count)], rows)
        queries = np.array([[1.0, 1.0]] * 9 + [[0.0, 0.0]] * 8)
        for k in (1, 30, count // 3, count // 3 + 1, count, count + 5):
            for query, result in zip(queries, search_dense_many(store, queries, k)):
                assert exact(result) == exact(reference_search_dense(store, query, k))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 400),
        st.integers(1, 4),
        st.sampled_from([1, dense.QUERY_CHUNK - 1, dense.QUERY_CHUNK, dense.QUERY_CHUNK + 1, 2 * dense.QUERY_CHUNK + 1]),
        st.sampled_from([1, 2]),
        st.sampled_from(["one", "below a span", "above a span", "above the count"]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_span_cut_matches_reference(self, count, dim, n_queries, span_blocks, k_of, seed, coarse):
        # Spans of one or two 64-row blocks, so a small store crosses several spans and
        # coarse values tie across span edges and at the k-th best score.
        rng = np.random.default_rng(seed)
        span = span_blocks * dense.ROW_ALIGN
        k = {"one": 1, "below a span": span // 2 - 3, "above a span": span + 9, "above the count": count + 2}[k_of]
        vectors = rng.integers(-2, 3, (count, dim)) if coarse else rng.standard_normal((count, dim))
        store = PassageEmbeddingStore([f"p{i}" for i in rng.permutation(count)], vectors.astype(np.float32))
        queries = rng.integers(-2, 3, (n_queries, dim)) * 0.5 if coarse else rng.standard_normal((n_queries, dim))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "BLOCK_BYTES", 1)
            mp.setattr(dense, "SPAN_BLOCKS", span_blocks)
            got = search_dense_many(store, queries, k)
        assert len(got) == n_queries
        for query, result in zip(queries, got):
            assert exact(result) == exact(reference_search_dense(store, query, k))

    def test_all_tie_query_is_cut_a_logarithmic_number_of_times(self, monkeypatch):
        # 16 spans of 16 64-row blocks. A zero query ties on every row, so every cut keeps them all:
        # cut after spans 1, 3, 7 and 15 (each time the kept rows pass twice their count at the last
        # cut), not after every span, and once more over all 16 spans before the rows are rescored.
        monkeypatch.setattr(dense, "BLOCK_BYTES", 1)
        count = 16 * dense.SPAN_BLOCKS * dense.ROW_ALIGN
        store = random_store(np.random.default_rng(19), count, 2)
        cuts = []

        def top_k_floor(scores, k, upper=None):
            cuts.append(len(scores))
            return real_top_k_floor(scores, k, upper)

        real_top_k_floor = dense.top_k_floor
        monkeypatch.setattr(dense, "top_k_floor", top_k_floor)
        queries = np.zeros((2, 2))
        for k in (1, 10):
            cuts.clear()
            got = search_dense_many(store, queries, k)
            span = dense.SPAN_BLOCKS * dense.ROW_ALIGN
            # span by span, query by query, then the final cut query by query
            assert cuts == [n * span for n in (1, 3, 7, 15) for _ in queries] + [16 * span] * len(queries)
            assert all(exact(ranked) == exact(reference_search_dense(store, queries[0], k)) for ranked in got)

    def test_no_score_buffer_spans_the_store(self, monkeypatch):
        # 64-row blocks: about 20k rows make 19 spans, so a chunk's buffer holds at most
        # two spans per query; one score row per query over the whole store would be 5 MB.
        monkeypatch.setattr(dense, "BLOCK_BYTES", 1)
        rng = np.random.default_rng(18)
        count = 20_000
        store = random_store(rng, count, 4)
        queries = rng.standard_normal((2 * dense.QUERY_CHUNK, 4))
        store.table.ranks  # built once per store, not per search
        tracemalloc.start()
        try:
            got = search_dense_many(store, queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(ranked) for ranked in got] == [10] * len(queries)
        assert peak < dense.QUERY_CHUNK * count * 8 / 4, peak

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 8),
        st.sampled_from([1, 3, dense.QUERY_CHUNK + 1]),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["normal", "coarse", "near ties", "wide rows", "wide entries", "near float32 max"]),
        st.sampled_from(["normal", "coarse", "zero", "extreme norms"]),
        st.booleans(),
        st.data(),
    )
    def test_screen_matches_float64_brute_force_bit_for_bit(
        self, count, dim, n_queries, seed, rows, scale, small_blocks, data
    ):
        # Tail rows (past the last multiple of ROW_ALIGN, or every row when count < 64), ties that
        # straddle the cut, near-ties below float32 resolution, subnormal and huge float32 values,
        # zero queries and query norms from about 1e-300 to 1e150.
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(1, count + 5))
        vectors = {
            "normal": lambda: rng.standard_normal((count, dim)),
            "coarse": lambda: rng.integers(-2, 3, (count, dim)),
            "near ties": lambda: rng.standard_normal(dim).astype(np.float32)
            * (1 + rng.integers(-3, 4, (count, dim)) * 2.0**-23),
            "wide rows": lambda: rng.standard_normal((count, dim)) * 10.0 ** rng.uniform(-40, 38, (count, 1)),
            "wide entries": lambda: rng.standard_normal((count, dim)) * 10.0 ** rng.uniform(-40, 38, (count, dim)),
            "near float32 max": lambda: rng.choice([-1.0, 1.0], (count, dim))
            * rng.uniform(0.5, 1.0, (count, dim)) * float(np.finfo(np.float32).max),
        }[rows]()
        queries = rng.integers(-2, 3, (n_queries, dim)) * 0.5 if scale == "coarse" else rng.standard_normal((n_queries, dim))
        if scale == "zero":
            queries[rng.random(n_queries) < 0.5] = 0.0
        elif scale == "extreme norms":
            queries *= 10.0 ** rng.uniform(-300, 150, (n_queries, 1))
        store = PassageEmbeddingStore([f"p{i}" for i in rng.permutation(count)], vectors.astype(np.float32))
        with pytest.MonkeyPatch.context() as mp:
            if small_blocks:
                mp.setattr(dense, "BLOCK_BYTES", 1)
            got = search_dense_many(store, queries, k)
        for query, result in zip(queries, got):
            assert exact(result) == exact(reference_search_dense(store, query, k))

    def test_screen_bound_keeps_a_float32_misorder_exact(self, monkeypatch):
        # Two rows whose float32 screen scores order them one way and whose float64 scores the other:
        # with the bound the search returns the float64 winner; with a zero bound it loses it.
        rng = np.random.default_rng(23)
        for _ in range(2000):
            query, pair = rng.standard_normal(16), np.repeat(rng.standard_normal((1, 16), dtype=np.float32), 2, axis=0)
            pair[1] = np.nextafter(pair[1], rng.choice([-np.inf, np.inf], 16).astype(np.float32))
            screen = np.empty((1, 2), dtype=np.float32)
            np.matmul(dense.screen_queries(query[None])[0], pair.T, out=screen)
            wide = pair.astype(np.float64) @ query
            if screen[0, 0] > screen[0, 1] and wide[0] < wide[1]:
                break
        else:
            pytest.fail("no misordered pair found")
        store = PassageEmbeddingStore(["a", "b"], pair)
        assert exact(search_dense(store, query, 1)) == [("b", 1, float.hex(wide[1]))]
        screen_queries = dense.screen_queries

        def unbounded(queries):
            q32, rel, under = screen_queries(queries)
            return q32, 0 * rel, 0 * under

        monkeypatch.setattr(dense, "screen_queries", unbounded)
        assert search_dense(store, query, 1).docids() == ["a"]

    def test_rescored_rows_stay_near_k(self, monkeypatch):
        # Random rows rarely fall within the bound of the floor: at most k + 8 rows are widened and rescored.
        rng = np.random.default_rng(26)
        store = random_store(rng, 20_000, 128)
        rescored = []

        def rescore(store, rows, query):
            rescored.append(len(rows))
            return real_rescore(store, rows, query)

        real_rescore = dense.rescore
        monkeypatch.setattr(dense, "rescore", rescore)
        queries = rng.standard_normal((8, 128))
        for span_blocks, k in itertools.product((2, dense.SPAN_BLOCKS), (1, 10, 1000)):  # ten spans, then one
            monkeypatch.setattr(dense, "SPAN_BLOCKS", span_blocks)
            rescored.clear()
            assert [len(ranked) for ranked in search_dense_many(store, queries, k)] == [k] * len(queries)
            assert len(rescored) == len(queries) and max(rescored) <= k + 8, (span_blocks, k, rescored)

    def test_float64_underflow_is_inside_the_bound(self):
        # q.v underflows to 0.0 in float64 while the scaled screen tells the rows apart: every row ties
        # and the ids decide, so the bound's underflow term must keep them all.
        count = 40
        vectors = np.arange(1, count + 1, dtype=np.float32)[:, None] * np.float32(1e-30)
        store = PassageEmbeddingStore([f"p{(i * 7) % count:02d}" for i in range(count)], vectors)
        query = np.array([1e-300])
        assert not (vectors.astype(np.float64) @ query).any()
        for k in (1, 5, count):
            assert exact(search_dense(store, query, k)) == exact(reference_search_dense(store, query, k))

    def test_search_dense_is_one_row_of_many(self):
        store = random_store(np.random.default_rng(13), 40, 5)
        query = np.random.default_rng(14).standard_normal(5)
        assert exact(search_dense(store, query, 7)) == exact(search_dense_many(store, query[None], 7)[0])

    def test_zero_queries_build_nothing(self):
        store = random_store(np.random.default_rng(15), 5, 3)
        assert search_dense_many(store, np.empty((0, 3)), 4) == []
        assert "ranks" not in vars(store.table)

    def test_largest_accepted_query_scores_stay_finite(self):
        store = PassageEmbeddingStore(["a", "b"], np.full((2, 4), np.finfo(np.float32).max, dtype=np.float32))
        query = np.full(4, math.sqrt(np.finfo(np.float64).max / 4) * 0.999)
        got = search_dense_many(store, np.stack([query, -query]), 2)
        assert all(math.isfinite(e.score) for ranked in got for e in ranked)

    def test_empty_store_gives_an_empty_list_per_query(self):
        store = PassageEmbeddingStore([], np.zeros((0, 3), dtype=np.float32))
        assert search_dense_many(store, np.ones((2, 3)), 4) == [RankedList()] * 2

    @pytest.mark.parametrize(
        "queries,k,message",
        [
            (np.array([[0.0] * 4] * 8 + [[0.0, np.nan, 0.0, 0.0]]), 3, "query vector contains non-finite values"),
            (np.array([[0.0] * 4, [np.inf, 0.0, 0.0, 0.0]]), 3, "query vector contains non-finite values"),
            (np.array([[0.0] * 4, [1e308] * 4]), 3, "query vector contains non-finite values"),  # squared norm overflows
            (np.zeros((3, 5)), 3, "query dimension (5,) does not match store dim 4"),
            (np.zeros(4), 3, "query dimension () does not match store dim 4"),
            (np.zeros((2, 4)), 0, "k must be >= 1, got 0"),
        ],
    )
    def test_bad_input_raises_before_scoring(self, queries, k, message):
        store = random_store(np.random.default_rng(16), 6, 4)
        with pytest.raises(ValueError, match=re.escape(message)):
            search_dense_many(store, queries, k)
        assert "ranks" not in vars(store.table)

    @pytest.mark.parametrize(
        "query,k,message",
        [
            (np.zeros(5), 2, "query dimension (5,) does not match store dim 4"),
            (np.zeros((1, 4)), 2, "query dimension (1, 4) does not match store dim 4"),
            (np.array([0.0, np.nan, 0.0, 0.0]), 2, "query vector contains non-finite values"),
            (np.zeros(5), 0, "k must be >= 1, got 0"),
        ],
    )
    def test_search_dense_errors_unchanged(self, query, k, message):
        store = random_store(np.random.default_rng(17), 3, 4)
        for search in (search_dense, reference_search_dense):
            with pytest.raises(ValueError, match=re.escape(message)):
                search(store, query, k)


BLOCK_CHECK = """
import numpy as np
from cqe import dense

rng = np.random.default_rng(0)
failures = checked = 0
for dim in (1, 2, 3, 96, 127, 128, 129):
    b = dense.block_rows(dim)
    assert b % dense.ROW_ALIGN == 0 and b * dim * 8 <= dense.BLOCK_BYTES, (dim, b)
    for count in (1, b - 1, b, b + 1, 2 * b - 1, 2 * b + 1, 4 * b + 1, *rng.integers(1, 5 * b, 3)):
        vectors = rng.standard_normal((count, dim)).astype(np.float32).astype(np.float64)
        queries = rng.standard_normal((3, dim))
        out = np.empty((3, count))
        dense.score_chunk(vectors, queries, out)
        for query, row in zip(queries, out):
            checked += 1
            if not np.array_equal(row.view(np.int64), (vectors @ query).view(np.int64)):
                failures += 1
                print("differs", count, dim)
print("checked", checked, "failures", failures)
"""


def test_blocked_scores_equal_one_full_product_bit_for_bit():
    # A fresh interpreter with one BLAS thread: the bits of a matrix-vector product
    # already depend on how many threads split it, blocked or not.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_CHECK], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "checked 210 failures 0", proc.stdout


SPAN_CHECK = """
import numpy as np
from cqe import dense
from cqe.ranking import top_k

rng = np.random.default_rng(2)
failures = checked = 0
for dim, span_blocks in ((1, 2), (128, 2), (129, 2), (128, dense.SPAN_BLOCKS), (129, dense.SPAN_BLOCKS)):
    b = dense.block_rows(dim)
    s = span_blocks * b
    # below a span, one span, one span + 1, spans + (block - 1), a last span holding a remainder block
    for count in (b + 3, s - 1, s, s + 1, 3 * s + b - 1, 2 * s + 5 * b + 7):
        vectors = rng.standard_normal((count, dim), dtype=np.float32).astype(np.float64)
        queries = rng.standard_normal((2, dim))
        spans = dense.pieces(count, s)
        assert all(a % b == 0 for a, _ in spans) and spans[-1][1] - spans[-1][0] >= min(count, s), spans
        out = np.empty((2, count - spans[-1][0]))
        same = [True, True]
        whole = [vectors @ query for query in queries]
        for a, e in spans:
            dense.score_chunk(vectors[a:e], queries, out)
            for j, row in enumerate(out[:, : e - a]):
                same[j] &= np.array_equal(row.view(np.int64), whole[j][a:e].view(np.int64))
        checked += len(same)
        failures += same.count(False)
        if not all(same):
            print("differs", count, dim, span_blocks)
# search_dense_many itself at the real span and block sizes, every row ranked, against one full
# product per query (a one-row span would be scored by a one-row product, whose bits can differ)
for dim in (128, 129):
    b, s = dense.block_rows(dim), dense.SPAN_BLOCKS * dense.block_rows(dim)
    for count in (s + 1, 3 * s + b - 1, 2 * s + 5 * b + 7):
        store = dense.PassageEmbeddingStore([f"p{i}" for i in range(count)], rng.standard_normal((count, dim), dtype=np.float32))
        queries = rng.standard_normal((3, dim))
        for query, ranked in zip(queries, dense.search_dense_many(store, queries, count)):
            want = top_k(np.arange(count), store.vectors @ query, store.table, count)
            checked += 1
            if [(e.docid, e.score.hex()) for e in ranked] != [(e.docid, e.score.hex()) for e in want]:
                failures += 1
                print("search differs", count, dim)
print("checked", checked, "failures", failures)
"""


def test_span_by_span_scores_equal_one_full_product_bit_for_bit():
    # Spans start at multiples of the span size and the last takes the rest, so scoring
    # span by span makes exactly the store's blocks (one BLAS thread, as BLOCK_CHECK).
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SPAN_CHECK], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "checked 78 failures 0", proc.stdout


CHUNK_CHECK = """
import numpy as np
from cqe import dense

rng = np.random.default_rng(1)
failures = checked = 0
for dim in (96, 128, 129):
    b = dense.block_rows(dim)
    for count in (1, b + 1, 4 * b + 1, 20 * b + 7):
        vectors = rng.standard_normal((count, dim)).astype(np.float32).astype(np.float64)
        queries = rng.standard_normal((dense.QUERY_CHUNK, dim))
        together = np.empty((len(queries), count))
        dense.score_chunk(vectors, queries, together)
        alone = np.empty((1, count))
        for query, row in zip(queries, together):
            dense.score_chunk(vectors, query[None], alone)
            checked += 1
            if not np.array_equal(row.view(np.int64), alone[0].view(np.int64)):
                failures += 1
                print("differs", count, dim)
print("checked", checked, "failures", failures)
"""


def test_query_scores_do_not_depend_on_chunk_mates_at_two_threads():
    # Two BLAS threads split a large block's product differently from a whole-store
    # one, so a query scored alone must take the same blocks as one scored in a full chunk.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-c", CHUNK_CHECK], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    checked = 3 * 4 * dense.QUERY_CHUNK  # dims x row counts x queries, as CHUNK_CHECK loops
    assert proc.stdout.splitlines()[-1] == f"checked {checked} failures 0", proc.stdout


GATHER_CHECK = """
import numpy as np
from cqe import dense
from cqe.ranking import top_k

rng = np.random.default_rng(3)
failures = checked = 0
for dim in (1, 3, 96, 128, 129):
    b = dense.block_rows(dim)
    # below ROW_ALIGN, around it, then several blocks and (at 17 blocks) two spans
    for count in (5, 63, 64, 65, 300) if dim < 4 else (b + 3, 2 * b - 1, 3 * b + 7, 17 * b + 33):
        store = dense.PassageEmbeddingStore([f"p{i}" for i in range(count)], rng.standard_normal((count, dim), dtype=np.float32))
        queries = rng.standard_normal((3, dim))
        whole = np.empty((3, count))
        dense.score_chunk(store.vectors.astype(np.float64), queries, whole)  # the float64 store's scores
        for query, scores in zip(queries, whole):
            rows = np.sort(rng.choice(count, int(rng.integers(1, count + 1)), replace=False))
            checked += 1
            if not np.array_equal(dense.rescore(store, rows, query).view(np.int64), scores[rows].view(np.int64)):
                failures += 1
                print("rescore differs", count, dim)
        # the whole search: every row ranked, against those scores
        for query, scores, ranked in zip(queries, whole, dense.search_dense_many(store, queries, count)):
            want = top_k(np.arange(count), scores, store.table, count)
            checked += 1
            if [(e.docid, e.score.hex()) for e in ranked] != [(e.docid, e.score.hex()) for e in want]:
                failures += 1
                print("search differs", count, dim)
print("checked", checked, "failures", failures)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_gathered_rescoring_equals_the_float64_store_bit_for_bit(threads):
    # Survivors are gathered, widened and padded to a multiple of ROW_ALIGN, or taken from the last
    # block: their bits must equal those of the blocks of a float64 store at the same BLAS thread count.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-c", GATHER_CHECK], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "checked 132 failures 0", proc.stdout


passage_ids = st.text(st.characters(codec="utf-8"), min_size=1, max_size=8).filter(
    lambda s: not WHITESPACE.search(s)
)
finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(passage_ids, max_size=6, unique=True), st.integers(1, 5), st.data())
def test_store_round_trip_keeps_ids_and_float32_bytes(ids, dim, data):
    vectors = data.draw(hnp.arrays(np.float32, (len(ids), dim), elements=finite_f32))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "store.json")
        save_embeddings(PassageEmbeddingStore(ids, vectors), manifest)
        loaded = load_embeddings(manifest)
        save_embeddings(loaded, os.path.join(tmp, "again.json"))
        blobs = [Path(tmp, name).read_bytes() for name in ("store.f32", "again.f32")]
    assert blobs[0] == blobs[1] == vectors.tobytes()
    assert loaded.ids == ids
    assert loaded.vectors.dtype == np.float32 and loaded.vectors.shape == (len(ids), dim)
    assert loaded.vectors.tobytes() == vectors.tobytes()
