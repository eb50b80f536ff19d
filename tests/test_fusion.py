"""Hybrid min-substitution combination and reciprocal rank fusion."""

import numpy as np
import pytest

from cqe.core import RewriteConfig, TokenEmbeddingMatrix, decontextualize, pool
from cqe.corpus import tokenize
from cqe.dense import search_dense
from cqe.fusion import FusionConfig, hybrid_combine, hybrid_search, rrf
from cqe.ranking import RankedList
from cqe.sparse import search_sparse
from cqe.trainer import ToyQueryEncoder


def random_lists(rng, n_docs=30, overlap=10):
    """Two lists sharing `overlap` docids, the rest disjoint."""
    shared = [f"s{i}" for i in range(overlap)]
    only_a = [f"a{i}" for i in range(n_docs - overlap)]
    only_b = [f"b{i}" for i in range(n_docs - overlap)]
    sparse = RankedList.from_scores(
        [(d, float(rng.uniform(1, 20))) for d in shared + only_a], "sparse"
    )
    dense = RankedList.from_scores(
        [(d, float(rng.uniform(-1, 1))) for d in shared + only_b], "dense"
    )
    return sparse, dense


def oracle_hybrid(sparse, dense, alpha):
    """Evaluate the three substitution cases one docid at a time."""
    sp, ds = sparse.scores(), dense.scores()
    min_sp, min_ds = min(sp.values()), min(ds.values())
    out = {}
    for d in set(sp) | set(ds):
        if d in sp and d in ds:
            out[d] = alpha * sp[d] + ds[d]
        elif d in sp:
            out[d] = alpha * sp[d] + min_ds
        else:
            out[d] = alpha * min_sp + ds[d]
    return sorted(out.items(), key=lambda it: (-it[1], it[0]))


class TestHybridCombine:
    def test_doc_in_both_lists(self):
        sparse = RankedList.from_scores([("x", 10.0), ("y", 1.0)], "sparse")
        dense = RankedList.from_scores([("x", 0.80), ("y", 0.2)], "dense")
        combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
        assert combined.scores()["x"] == pytest.approx(1.80)

    def test_sparse_only_doc_takes_dense_minimum(self):
        sparse = RankedList.from_scores([("x", 12.0), ("y", 1.0)], "sparse")
        dense = RankedList.from_scores([("y", 0.9), ("z", 0.30)], "dense")
        combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
        assert combined.scores()["x"] == pytest.approx(1.50)

    def test_dense_only_doc_takes_sparse_minimum(self):
        sparse = RankedList.from_scores([("x", 12.0), ("y", 2.0)], "sparse")
        dense = RankedList.from_scores([("y", 0.9), ("z", 0.30)], "dense")
        combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
        assert combined.scores()["z"] == pytest.approx(0.1 * 2.0 + 0.30)

    def test_matches_case_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            sparse, dense = random_lists(rng)
            combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
            expected = oracle_hybrid(sparse, dense, 0.1)
            assert [(e.docid, e.score) for e in combined] == [
                (d, pytest.approx(s)) for d, s in expected
            ]

    def test_alpha_zero_preserves_dense_order(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            sparse, dense = random_lists(rng)
            combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.0))
            dense_ids = set(dense.docids())
            inside = [e.docid for e in combined if e.docid in dense_ids]
            assert inside == dense.docids()
            min_dense = min(dense.scores().values())
            for e in combined:
                if e.docid not in dense_ids:
                    assert e.score <= min_dense

    def test_permuting_equal_scores_is_invariant(self):
        sparse = RankedList.from_scores([("a", 5.0), ("b", 5.0), ("c", 1.0)], "sparse")
        sparse_perm = RankedList.from_scores([("b", 5.0), ("a", 5.0), ("c", 1.0)], "other-tag")
        dense = RankedList.from_scores([("c", 0.4), ("d", 0.1)], "dense")
        first = hybrid_combine(sparse, dense)
        second = hybrid_combine(sparse_perm, dense)
        assert [(e.docid, e.score) for e in first] == [(e.docid, e.score) for e in second]

    def test_covers_full_union(self):
        rng = np.random.default_rng(43)
        sparse, dense = random_lists(rng)
        combined = hybrid_combine(sparse, dense)
        assert set(combined.docids()) == set(sparse.docids()) | set(dense.docids())

    def test_empty_input_rejected(self):
        filled = RankedList.from_scores([("a", 1.0)], "sparse")
        with pytest.raises(ValueError, match="non-empty"):
            hybrid_combine(filled, RankedList([], "dense"))
        with pytest.raises(ValueError, match="non-empty"):
            hybrid_combine(RankedList([], "sparse"), filled)


class TestRRF:
    def test_single_list_keeps_order(self):
        ranked = RankedList.from_scores([("a", 9.0), ("b", 5.0), ("c", 1.0)], "run")
        fused = rrf([ranked])
        assert fused.docids() == ["a", "b", "c"]

    def test_two_list_score(self):
        first = RankedList.from_scores([("x", 2.0), ("y", 1.0)], "r1")
        second = RankedList.from_scores([("y", 9.0), ("z", 8.0), ("x", 7.0)], "r2")
        fused = rrf([first, second], FusionConfig(rrf_k=60))
        assert fused.scores()["x"] == pytest.approx(1 / 61 + 1 / 63)

    def test_matches_reciprocal_sum_oracle(self):
        rng = np.random.default_rng(44)
        docs = [f"d{i}" for i in range(10)]
        lists = []
        for _ in range(3):
            order = [docs[i] for i in rng.permutation(10)]
            lists.append(
                RankedList.from_scores([(d, float(10 - r)) for r, d in enumerate(order)], "r")
            )
        fused = rrf(lists, FusionConfig(rrf_k=60))
        expected = {}
        for ranked in lists:
            for e in ranked:
                expected[e.docid] = expected.get(e.docid, 0.0) + 1.0 / (60 + e.rank)
        for e in fused:
            assert e.score == pytest.approx(expected[e.docid], rel=1e-12)

    def test_rank_one_everywhere_attains_maximum(self):
        lists = [
            RankedList.from_scores([("top", 5.0), (f"x{i}", 1.0)], "r") for i in range(4)
        ]
        fused = rrf(lists, FusionConfig(rrf_k=60))
        assert fused.entries[0].docid == "top"
        assert fused.entries[0].score == pytest.approx(4 / 61)

    def test_scores_positive_and_bounded(self):
        rng = np.random.default_rng(45)
        docs = [f"d{i}" for i in range(8)]
        lists = []
        for _ in range(3):
            chosen = [docs[i] for i in rng.permutation(8)[:5]]
            lists.append(
                RankedList.from_scores([(d, float(9 - r)) for r, d in enumerate(chosen)], "r")
            )
        fused = rrf(lists, FusionConfig(rrf_k=60))
        for e in fused:
            assert 0.0 < e.score <= 3 / 61

    def test_requires_a_list(self):
        with pytest.raises(ValueError):
            rrf([])

    def test_k_keeps_the_top_of_the_full_fusion(self):
        rng = np.random.default_rng(46)
        lists = list(random_lists(rng))
        full = rrf(lists)
        assert rrf(lists, k=7).entries == full.entries[:7]
        assert rrf(lists, k=10_000).entries == full.entries
        with pytest.raises(ValueError, match="k must be >= 1"):
            rrf(lists, k=0)


class TestHybridSearch:
    REWRITE = RewriteConfig(gamma=RewriteConfig.HYBRID_GAMMA)
    FUSION = FusionConfig(alpha=0.3)

    def turn_matrices(self, planted):
        vocab = [tok for s in planted.sessions for t in s.turns for tok in tokenize(t.raw_utterance)]
        encoder = ToyQueryEncoder.create(vocab, dim=planted.store.dim, seed=3)
        return [
            encoder.encode(*s.tokens_for_turn(i)) for s in planted.sessions for i in range(len(s.turns))
        ]

    def test_fused_case_is_hybrid_combine_cut_at_k(self, planted, planted_index):
        fused_turns = 0
        for matrix in self.turn_matrices(planted):
            sparse = search_sparse(planted_index, decontextualize(matrix, self.REWRITE), 20)
            dense = search_dense(planted.store, pool(matrix), 20)
            got = hybrid_search(planted_index, planted.store, matrix, self.REWRITE, self.FUSION, 20, 5)
            assert got.tag == "hybrid"
            if sparse and dense:
                fused_turns += 1
                assert got.entries == hybrid_combine(sparse, dense, self.FUSION).entries[:5]
        assert fused_turns > 0

    def test_empty_bag_returns_the_dense_list(self, planted, planted_index):
        rng = np.random.default_rng(47)
        matrix = TokenEmbeddingMatrix(["[cls]", "[sep]"], rng.standard_normal((2, planted.store.dim)), 0)
        assert decontextualize(matrix, self.REWRITE) == []
        got = hybrid_search(planted_index, planted.store, matrix, self.REWRITE, self.FUSION, 20, 5)
        assert got.tag == "hybrid"
        assert got.entries == search_dense(planted.store, pool(matrix), 20).entries[:5]

    def test_k_must_be_positive(self, planted, planted_index):
        matrix = self.turn_matrices(planted)[0]
        with pytest.raises(ValueError, match="k must be >= 1"):
            hybrid_search(planted_index, planted.store, matrix, self.REWRITE, self.FUSION, 20, 0)


class TestFusionConfig:
    def test_defaults(self):
        cfg = FusionConfig()
        assert cfg.alpha == 0.1 and cfg.rrf_k == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(alpha=-0.5)
        with pytest.raises(ValueError):
            FusionConfig(rrf_k=0.0)
