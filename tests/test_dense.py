"""Embedding store IO and exact inner-product search."""

import json
import os
import re
import subprocess
import sys
import tempfile

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqe import dense
from cqe.corpus import WHITESPACE
from cqe.dense import (
    PassageEmbeddingStore,
    load_embeddings,
    save_embeddings,
    search_dense,
    search_dense_many,
)
from cqe.ranking import RankedList, id_ranks, top_k

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
    return top_k(np.arange(store.count), scores, store.ids, id_ranks(store.ids), k)


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
        assert np.array_equal(store.vector("b"), np.array([4, 5, 6, 7], dtype=np.float32))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            PassageEmbeddingStore(["a", "a"], np.zeros((2, 2), dtype=np.float32))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="count"):
            PassageEmbeddingStore(["a"], np.zeros((2, 2), dtype=np.float32))

    def test_non_finite_rejected(self):
        bad = np.zeros((1, 2), dtype=np.float32)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PassageEmbeddingStore(["a"], bad)


class TestIO:
    def test_empty_store(self, tmp_path):
        store = PassageEmbeddingStore([], np.zeros((0, 4), dtype=np.float32))
        manifest = str(tmp_path / "empty.json")
        save_embeddings(store, manifest)
        loaded = load_embeddings(manifest)
        assert loaded.count == 0 and loaded.dim == 4

    def test_three_vectors(self, tmp_path):
        rng = np.random.default_rng(1)
        store = random_store(rng, 3, 4)
        manifest = str(tmp_path / "s.json")
        save_embeddings(store, manifest)
        loaded = load_embeddings(manifest)
        for pid in store.ids:
            assert np.array_equal(loaded.vector(pid), store.vector(pid))

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

    def test_bad_dtype_rejected(self, tmp_path):
        manifest = str(tmp_path / "s.json")
        open(manifest, "w").write(json.dumps({"dim": 2, "count": 0, "dtype": "f64le"}))
        with pytest.raises(ValueError, match="dtype"):
            load_embeddings(manifest)


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

    def test_float64_copy_made_on_first_search(self):
        store = random_store(np.random.default_rng(12), 5, 3)
        assert "_vectors64" not in vars(store)
        search_dense(store, np.ones(3), 2)
        assert vars(store)["_vectors64"].dtype == np.float64


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

    def test_search_dense_is_one_row_of_many(self):
        store = random_store(np.random.default_rng(13), 40, 5)
        query = np.random.default_rng(14).standard_normal(5)
        assert exact(search_dense(store, query, 7)) == exact(search_dense_many(store, query[None], 7)[0])

    def test_zero_queries_build_nothing(self):
        store = random_store(np.random.default_rng(15), 5, 3)
        assert search_dense_many(store, np.empty((0, 3)), 4) == []
        assert "_vectors64" not in vars(store) and "_id_ranks" not in vars(store)

    def test_empty_store_gives_an_empty_list_per_query(self):
        store = PassageEmbeddingStore([], np.zeros((0, 3), dtype=np.float32))
        assert search_dense_many(store, np.ones((2, 3)), 4) == [RankedList()] * 2

    @pytest.mark.parametrize(
        "queries,k,message",
        [
            (np.array([[0.0] * 4] * 8 + [[0.0, np.nan, 0.0, 0.0]]), 3, "query vector contains non-finite values"),
            (np.array([[0.0] * 4, [np.inf, 0.0, 0.0, 0.0]]), 3, "query vector contains non-finite values"),
            (np.zeros((3, 5)), 3, "query dimension (5,) does not match store dim 4"),
            (np.zeros(4), 3, "query dimension () does not match store dim 4"),
            (np.zeros((2, 4)), 0, "k must be >= 1, got 0"),
        ],
    )
    def test_bad_input_raises_before_scoring(self, queries, k, message):
        store = random_store(np.random.default_rng(16), 6, 4)
        with pytest.raises(ValueError, match=re.escape(message)):
            search_dense_many(store, queries, k)
        assert "_vectors64" not in vars(store)

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
    # one, so a query scored alone must take the same blocks as one scored among 8.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-c", CHUNK_CHECK], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "checked 96 failures 0", proc.stdout


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
    assert loaded.ids == ids
    assert loaded.vectors.dtype == np.float32 and loaded.vectors.shape == (len(ids), dim)
    assert loaded.vectors.tobytes() == vectors.tobytes()
