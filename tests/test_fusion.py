"""Hybrid min-substitution combination and reciprocal rank fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqe.core import RewriteConfig, TokenEmbeddingMatrix, decontextualize, pool
from cqe.corpus import tokenize
from cqe.dense import search_dense
from cqe.fusion import FusionConfig, hybrid_combine, hybrid_search, rrf
from cqe.ranking import RankedEntry, RankedList
from cqe.sparse import search_sparse
from cqe.trainer import ToyQueryEncoder


def random_lists(rng, n_docs=30, overlap=10):
    """Two lists sharing `overlap` docids, the rest disjoint."""
    shared = [f"s{i}" for i in range(overlap)]
    only_a = [f"a{i}" for i in range(n_docs - overlap)]
    only_b = [f"b{i}" for i in range(n_docs - overlap)]
    sparse = RankedList.from_scores([(d, float(rng.uniform(1, 20))) for d in shared + only_a])
    dense = RankedList.from_scores([(d, float(rng.uniform(-1, 1))) for d in shared + only_b])
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


def reference_hybrid_combine(sparse, dense, config=None):
    """The earlier list-and-dict fusion: two score dicts, then RankedList.from_scores."""
    config = config or FusionConfig()
    sp = {e.docid: e.score for e in sparse.entries}
    ds = {e.docid: e.score for e in dense.entries}
    min_sp = min(sp.values())
    min_ds = min(ds.values())
    combined = [
        (docid, config.alpha * sp.get(docid, min_sp) + ds.get(docid, min_ds))
        for docid in sp.keys() | ds.keys()
    ]
    return RankedList.from_scores(combined)


def exact(ranked):
    """(docid, score, rank) per entry with the score's bits: == alone takes -0.0 for 0.0."""
    for e in ranked:
        assert type(e.score) is float and type(e.rank) is int
    return [(e.docid, e.score.hex(), e.rank) for e in ranked]


def as_columns(ranked):
    """The same results as a column-form list."""
    return RankedList.from_columns(ranked.docids(), np.array([e.score for e in ranked]))


# Few distinct scores, signed zeros and tiny values force equal fused scores.
TIE_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 5e-324, -5e-324]),
    st.floats(-4, 4, allow_nan=False),
)
ALPHAS = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]), st.floats(0, 8, allow_nan=False))


@st.composite
def list_pairs(draw):
    """(sparse, dense) entry lists whose id sets overlap, coincide or are disjoint."""
    def scored(alphabet):
        return st.dictionaries(st.text(alphabet, min_size=1, max_size=3), TIE_SCORES, min_size=1, max_size=9)

    sparse = draw(scored("abc"))
    mode = draw(st.sampled_from(["overlap", "same", "disjoint"]))
    if mode == "same":
        dense = {d: draw(TIE_SCORES) for d in sparse}
    else:
        dense = draw(scored("bcd" if mode == "overlap" else "xyz"))
    return RankedList.from_scores(sparse.items()), RankedList.from_scores(dense.items())


class TestHybridCombineExact:
    @settings(max_examples=300, deadline=None)
    @given(list_pairs(), ALPHAS)
    def test_equals_reference_bit_for_bit(self, pair, alpha):
        sparse, dense = pair
        config = FusionConfig(alpha=alpha)
        expected = exact(reference_hybrid_combine(sparse, dense, config))
        assert exact(hybrid_combine(sparse, dense, config)) == expected
        assert exact(hybrid_combine(as_columns(sparse), as_columns(dense), config)) == expected
        assert hybrid_combine(sparse, dense, config) == reference_hybrid_combine(sparse, dense, config)

    def test_shared_fused_scores_break_by_id(self):
        sparse = RankedList.from_scores([("c", 2.0), ("a", 1.0), ("b", 0.0)])
        dense = RankedList.from_scores([("b", 0.5), ("a", 0.4), ("d", 0.3)])
        got = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
        # c: 0.2 + 0.3 (dense minimum), a: 0.1 + 0.4, b: 0.0 + 0.5, d: 0.0 (sparse minimum) + 0.3
        assert [(e.docid, e.score, e.rank) for e in got] == [
            ("a", 0.5, 1), ("b", 0.5, 2), ("c", 0.5, 3), ("d", 0.3, 4)
        ]
        tied = RankedList.from_scores([("z", 1.0), ("y", 1.0), ("x", 1.0)])
        # alpha 0: every sparse-only document takes the dense minimum, 1.0
        got = hybrid_combine(sparse, tied, FusionConfig(alpha=0.0))
        assert got.docids() == ["a", "b", "c", "x", "y", "z"]

    def test_signed_zero_substitute_is_the_first_minimum(self):
        # The sparse minimum is a 0.0/-0.0 tie; min() takes the first in rank order ("a": -0.0).
        sparse = RankedList([RankedEntry("a", -0.0, 1), RankedEntry("b", 0.0, 2)])
        dense = RankedList.from_scores([("c", -0.0)])
        got = hybrid_combine(sparse, dense, FusionConfig(alpha=1.0))
        assert exact(got) == exact(reference_hybrid_combine(sparse, dense, FusionConfig(alpha=1.0)))
        assert got.scores()["c"].hex() == "-0x0.0p+0"

    def test_one_element_lists(self):
        one = RankedList.from_scores([("a", 2.0)])
        other = RankedList.from_scores([("b", 0.25)])
        for sparse, dense in ((one, other), (one, one), (other, one)):
            assert exact(hybrid_combine(sparse, dense)) == exact(reference_hybrid_combine(sparse, dense))


class TestHybridCombine:
    def test_doc_in_both_lists(self):
        sparse = RankedList.from_scores([("x", 10.0), ("y", 1.0)])
        dense = RankedList.from_scores([("x", 0.80), ("y", 0.2)])
        combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
        assert combined.scores()["x"] == pytest.approx(1.80)

    def test_sparse_only_doc_takes_dense_minimum(self):
        sparse = RankedList.from_scores([("x", 12.0), ("y", 1.0)])
        dense = RankedList.from_scores([("y", 0.9), ("z", 0.30)])
        combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
        assert combined.scores()["x"] == pytest.approx(1.50)

    def test_dense_only_doc_takes_sparse_minimum(self):
        sparse = RankedList.from_scores([("x", 12.0), ("y", 2.0)])
        dense = RankedList.from_scores([("y", 0.9), ("z", 0.30)])
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
        sparse = RankedList.from_scores([("a", 5.0), ("b", 5.0), ("c", 1.0)])
        sparse_perm = RankedList.from_scores([("b", 5.0), ("a", 5.0), ("c", 1.0)])
        dense = RankedList.from_scores([("c", 0.4), ("d", 0.1)])
        first = hybrid_combine(sparse, dense)
        second = hybrid_combine(sparse_perm, dense)
        assert [(e.docid, e.score) for e in first] == [(e.docid, e.score) for e in second]

    def test_covers_full_union(self):
        rng = np.random.default_rng(43)
        sparse, dense = random_lists(rng)
        combined = hybrid_combine(sparse, dense)
        assert set(combined.docids()) == set(sparse.docids()) | set(dense.docids())

    def test_empty_input_rejected(self):
        filled = RankedList.from_scores([("a", 1.0)])
        with pytest.raises(ValueError, match="non-empty"):
            hybrid_combine(filled, RankedList([]))
        with pytest.raises(ValueError, match="non-empty"):
            hybrid_combine(RankedList([]), filled)


class TestRRF:
    def test_single_list_keeps_order(self):
        ranked = RankedList.from_scores([("a", 9.0), ("b", 5.0), ("c", 1.0)])
        fused = rrf([ranked])
        assert fused.docids() == ["a", "b", "c"]

    def test_two_list_score(self):
        first = RankedList.from_scores([("x", 2.0), ("y", 1.0)])
        second = RankedList.from_scores([("y", 9.0), ("z", 8.0), ("x", 7.0)])
        fused = rrf([first, second], FusionConfig(rrf_k=60))
        assert fused.scores()["x"] == pytest.approx(1 / 61 + 1 / 63)

    def test_matches_reciprocal_sum_oracle(self):
        rng = np.random.default_rng(44)
        docs = [f"d{i}" for i in range(10)]
        lists = []
        for _ in range(3):
            order = [docs[i] for i in rng.permutation(10)]
            lists.append(
                RankedList.from_scores([(d, float(10 - r)) for r, d in enumerate(order)])
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
            RankedList.from_scores([("top", 5.0), (f"x{i}", 1.0)]) for i in range(4)
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
                RankedList.from_scores([(d, float(9 - r)) for r, d in enumerate(chosen)])
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
            if sparse and dense:
                fused_turns += 1
                assert got.entries == hybrid_combine(sparse, dense, self.FUSION).entries[:5]
        assert fused_turns > 0

    def test_empty_bag_returns_the_dense_list(self, planted, planted_index):
        rng = np.random.default_rng(47)
        matrix = TokenEmbeddingMatrix(["[cls]", "[sep]"], rng.standard_normal((2, planted.store.dim)), 0)
        assert decontextualize(matrix, self.REWRITE) == []
        got = hybrid_search(planted_index, planted.store, matrix, self.REWRITE, self.FUSION, 20, 5)
        assert got.entries == search_dense(planted.store, pool(matrix), 20).entries[:5]

    @pytest.mark.parametrize("k", [1, 7, 10_000])
    def test_equals_reference_cut_at_k(self, planted, planted_index, k):
        for matrix in self.turn_matrices(planted):
            sparse = search_sparse(planted_index, decontextualize(matrix, self.REWRITE), 20)
            dense = search_dense(planted.store, pool(matrix), 20)
            got = hybrid_search(planted_index, planted.store, matrix, self.REWRITE, self.FUSION, 20, k)
            full = reference_hybrid_combine(sparse, dense, self.FUSION) if sparse else dense
            assert exact(got) == exact(full)[:k]
            assert len(got) == min(k, len(full))

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
