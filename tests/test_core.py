"""Token-matrix math: pooling, scoring, decomposition, norms, rewriting."""

import math
from collections import Counter

import numpy as np
import pytest

from cqe.core import (
    RewriteConfig,
    Session,
    TokenEmbeddingMatrix,
    Turn,
    decompose,
    decontextualize,
    load_sessions,
    load_token_matrices,
    pool,
    save_sessions,
    save_token_matrices,
    score,
    token_norm_report,
)


def random_matrix(rng, rows, dim, context_len=None):
    if context_len is None:
        context_len = int(rng.integers(0, rows))
    tokens = [f"t{i}" for i in range(rows)]
    return TokenEmbeddingMatrix(tokens, rng.standard_normal((rows, dim)), context_len)


class TestMatrixValidation:
    def test_requires_query_row(self):
        with pytest.raises(ValueError, match="query row"):
            TokenEmbeddingMatrix(["a"], np.zeros((1, 2)), 1)

    def test_rejects_token_vector_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            TokenEmbeddingMatrix(["a", "b"], np.zeros((3, 2)), 0)

    def test_rejects_non_finite(self):
        bad = np.zeros((1, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            TokenEmbeddingMatrix(["a"], bad, 0)

    def test_rejects_a_row_whose_squared_norm_overflows(self):
        with pytest.raises(ValueError, match="vectors hold a row with a non-finite squared norm"):
            TokenEmbeddingMatrix(["a", "b"], np.array([[1e308] * 4, [1e308] * 4]), 1)

    def test_largest_accepted_rows_keep_every_result_finite(self):
        # Squared norms just under the float64 limit; opposite signs make pooling subtract.
        big = math.sqrt(np.finfo(np.float64).max / 4) * 0.999
        m = TokenEmbeddingMatrix(["a", "b"], np.array([[big] * 4, [-big] * 4]), 1)
        passage = np.full(4, np.finfo(np.float32).max, dtype=np.float64)
        assert np.isfinite(pool(m)).all() and math.isfinite(score(m, passage))
        assert all(math.isfinite(n.l2_norm) for n in token_norm_report(m))
        assert all(math.isfinite(c.l2_norm) and math.isfinite(c.contribution) for c in decompose(m, passage))
        assert decontextualize(m, RewriteConfig(gamma=12.0)) == ["b", "a"]


class TestPool:
    def test_single_row(self):
        m = TokenEmbeddingMatrix(["a"], np.array([[3.0, -1.0]]), 0)
        assert np.array_equal(pool(m), np.array([3.0, -1.0]))

    def test_two_rows(self):
        m = TokenEmbeddingMatrix(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]), 1)
        assert np.array_equal(pool(m), np.array([0.5, 0.5]))

    def test_matches_columnwise_mean(self):
        rng = np.random.default_rng(21)
        m = random_matrix(rng, 5, 8)
        expected = np.array(
            [math.fsum(m.vectors[r, c] for r in range(5)) / 5 for c in range(8)]
        )
        assert np.abs(pool(m) - expected).max() < 1e-12

    def test_constant_rows_pool_exactly(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            v = rng.standard_normal(6)
            m = TokenEmbeddingMatrix([f"t{i}" for i in range(n)], np.tile(v, (n, 1)), 0)
            assert np.array_equal(pool(m), v)


class TestScore:
    def test_direct_substitution(self):
        m = TokenEmbeddingMatrix(["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]]), 1)
        assert score(m, np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_zero_passage(self):
        rng = np.random.default_rng(23)
        m = random_matrix(rng, 4, 6)
        assert score(m, np.zeros(6)) == 0.0

    def test_matches_decompose_sum(self):
        rng = np.random.default_rng(24)
        m = random_matrix(rng, 4, 6)
        passage = rng.standard_normal(6)
        total = sum(c.contribution for c in decompose(m, passage)) / 4
        assert score(m, passage) == pytest.approx(total, rel=1e-9)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(25)
        m = random_matrix(rng, 3, 4)
        with pytest.raises(ValueError, match="dimension"):
            score(m, np.zeros(5))


class TestDecompose:
    def test_collinear_row(self):
        m = TokenEmbeddingMatrix(["a"], np.array([[3.0, 0.0]]), 0)
        (item,) = decompose(m, np.array([1.0, 0.0]))
        assert item.l2_norm == 3.0 and item.contribution == 3.0
        assert score(m, np.array([1.0, 0.0])) == 3.0

    def test_orthogonal_row(self):
        m = TokenEmbeddingMatrix(["a"], np.array([[0.0, 2.0]]), 0)
        (item,) = decompose(m, np.array([1.0, 0.0]))
        assert item.l2_norm == 2.0 and item.contribution == 0.0

    def test_zero_norm_row(self):
        m = TokenEmbeddingMatrix(["a", "b"], np.array([[0.0, 0.0], [1.0, 1.0]]), 1)
        items = decompose(m, np.array([1.0, 2.0]))
        assert items[0].l2_norm == 0.0 and items[0].contribution == 0.0

    def test_mean_contribution_equals_score(self):
        rng = np.random.default_rng(26)
        m = random_matrix(rng, 6, 4)
        passage = rng.standard_normal(4)
        total = sum(c.contribution for c in decompose(m, passage)) / 6
        assert total == pytest.approx(score(m, passage), rel=1e-9)

    def test_identity_on_large_random_matrices(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            rows = int(rng.integers(1, 129))
            dim = int(rng.integers(1, 769))
            m = random_matrix(rng, rows, dim)
            passage = rng.standard_normal(dim)
            total = sum(c.contribution for c in decompose(m, passage)) / rows
            s = score(m, passage)
            assert abs(total - s) <= 1e-9 * max(abs(total), abs(s))


class TestTokenNormReport:
    def test_normalization_by_context_mean(self):
        vectors = np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        m = TokenEmbeddingMatrix(["c1", "c2", "q"], vectors, 2)
        report = token_norm_report(m)
        assert report[0].normalized_norm == pytest.approx(2 / 3)
        assert report[1].normalized_norm == pytest.approx(4 / 3)
        assert report[2].normalized_norm == pytest.approx(math.sqrt(2) / 3)

    def test_equal_context_norms_normalize_to_one(self):
        vectors = np.array([[3.0, 0.0], [0.0, 3.0], [0.0, 1.0]])
        m = TokenEmbeddingMatrix(["c1", "c2", "q"], vectors, 2)
        report = token_norm_report(m)
        assert report[0].normalized_norm == 1.0
        assert report[1].normalized_norm == 1.0

    def test_no_context_reports_raw_norms_only(self):
        m = TokenEmbeddingMatrix(["q1", "q2"], np.array([[3.0, 4.0], [0.0, 1.0]]), 0)
        report = token_norm_report(m)
        assert [r.l2_norm for r in report] == [5.0, 1.0]
        assert all(r.normalized_norm is None for r in report)


    def test_report_rewrite_and_decomposition_share_one_norm_pass(self, monkeypatch):
        m = random_matrix(np.random.default_rng(61), 7, 5, context_len=4)
        want = [float(n) for n in np.linalg.norm(m.vectors, axis=1)]  # each row on its own, as before
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append(a) or norm(*a, **kw))
        decontextualize(m, RewriteConfig(gamma=0.0))
        assert [r.l2_norm for r in token_norm_report(m)] == [c.l2_norm for c in decompose(m, np.ones(5))] == want
        assert len(calls) == 1


class TestDecontextualize:
    def context_query_matrix(self):
        # context norms: 12, 11, 3, 2; query rows are unit-ish
        context = np.diag([12.0, 11.0, 3.0, 2.0])
        query = np.ones((4, 4))
        tokens = ["neolithic", "revolution", "start", "end", "why", "did", "it", "start"]
        return TokenEmbeddingMatrix(tokens, np.vstack([context, query]), 4)

    def test_gamma_zero_keeps_everything(self):
        m = self.context_query_matrix()
        bag = decontextualize(m, RewriteConfig(gamma=0.0))
        assert Counter(bag) == Counter(m.tokens)
        assert bag[:4] == ["why", "did", "it", "start"]

    def test_gamma_infinity_keeps_query_only(self):
        m = self.context_query_matrix()
        assert decontextualize(m, RewriteConfig(gamma=math.inf)) == ["why", "did", "it", "start"]

    def test_threshold_selects_high_norm_context_terms(self):
        m = self.context_query_matrix()
        bag = decontextualize(m, RewriteConfig(gamma=10.0))
        assert bag == ["why", "did", "it", "start", "neolithic", "revolution"]

    def test_duplicates_preserved(self):
        vectors = np.array([[5.0, 0.0], [5.0, 0.0], [1.0, 0.0]])
        m = TokenEmbeddingMatrix(["rain", "rain", "when"], vectors, 2)
        assert decontextualize(m, RewriteConfig(gamma=4.0)) == ["when", "rain", "rain"]

    def test_special_tokens_excluded(self):
        vectors = np.array([[50.0, 0.0], [20.0, 0.0], [1.0, 0.0], [30.0, 0.0]])
        m = TokenEmbeddingMatrix(["[CLS]", "topic", "what", "[SEP]"], vectors, 2)
        assert decontextualize(m, RewriteConfig(gamma=10.0)) == ["what", "topic"]

    def test_selection_monotone_in_gamma(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            m = random_matrix(rng, int(rng.integers(2, 12)), 4)
            g1, g2 = sorted(rng.uniform(0, 3, size=2))
            selected1 = Counter(decontextualize(m, RewriteConfig(gamma=g1)))
            selected2 = Counter(decontextualize(m, RewriteConfig(gamma=g2)))
            assert all(selected2[t] <= selected1[t] for t in selected2)

    def test_row_scaling_with_gamma_scaling_is_invariant(self):
        rng = np.random.default_rng(29)
        m = random_matrix(rng, 8, 5, context_len=5)
        gamma = 1.2
        c = 3.7
        scaled = TokenEmbeddingMatrix(m.tokens, c * m.vectors, m.context_len)
        assert decontextualize(m, RewriteConfig(gamma=gamma)) == decontextualize(
            scaled, RewriteConfig(gamma=c * gamma)
        )
        passage = rng.standard_normal(5)
        assert score(scaled, passage) == pytest.approx(c * score(m, passage), rel=1e-12)
        for before, after in zip(token_norm_report(m), token_norm_report(scaled)):
            assert after.l2_norm == pytest.approx(c * before.l2_norm, rel=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            RewriteConfig(gamma=-1.0)

    def test_default_gammas(self):
        assert RewriteConfig().gamma == 10.5
        assert RewriteConfig.HYBRID_GAMMA == 12.0


class TestSessions:
    def test_turn_tokens_accumulate_context(self):
        s = Session("s1", [Turn("what is a topic"), Turn("why did it start?")])
        context, query = s.tokens_for_turn(1)
        assert context == ["what", "is", "a", "topic"]
        assert query == ["why", "did", "it", "start"]
        assert s.qid(1) == "s1_2"

    def test_first_turn_has_no_context(self):
        s = Session("s1", [Turn("hello world")])
        context, query = s.tokens_for_turn(0)
        assert context == [] and query == ["hello", "world"]

    def test_round_trip(self, tmp_path):
        sessions = [
            Session("a", [Turn("one", "one rewritten"), Turn("two", None)]),
            Session("b", [Turn("three", "three")]),
        ]
        path = str(tmp_path / "sessions.jsonl")
        save_sessions(sessions, path)
        loaded = load_sessions(path)
        assert loaded == sessions


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(30)
        matrices = {
            "q1": random_matrix(rng, 3, 4, context_len=1),
            "q2": random_matrix(rng, 5, 4, context_len=0),
        }
        path = str(tmp_path / "matrices.jsonl")
        save_token_matrices(matrices, path)
        loaded = load_token_matrices(path)
        assert list(loaded) == ["q1", "q2"]
        for qid, m in matrices.items():
            assert loaded[qid].tokens == m.tokens
            assert loaded[qid].context_len == m.context_len
            assert np.array_equal(loaded[qid].vectors, m.vectors)

    def test_non_ascii_tokens_round_trip_as_raw_utf8(self, tmp_path):
        m = TokenEmbeddingMatrix(["café", "東京", "naïve"], np.arange(6.0).reshape(3, 2) - 2.5, 1)
        path = tmp_path / "matrices.jsonl"
        save_token_matrices({"q1": m}, str(path))
        assert "café" in path.read_text(encoding="utf-8") and "\\u" not in path.read_text(encoding="utf-8")
        loaded = load_token_matrices(str(path))["q1"]
        assert loaded.tokens == m.tokens and loaded.context_len == 1
        assert loaded.vectors.tobytes() == m.vectors.tobytes()

    def test_duplicate_qid_rejected(self, tmp_path):
        rng = np.random.default_rng(31)
        m = random_matrix(rng, 2, 2, context_len=0)
        path = str(tmp_path / "matrices.jsonl")
        save_token_matrices({"q1": m}, path)
        with open(path, "a") as fh:
            fh.write(open(path).readline())
        with pytest.raises(ValueError, match="duplicate"):
            load_token_matrices(path)
