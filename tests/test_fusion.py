"""Hybrid min-substitution combination and reciprocal rank fusion."""

from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import holds_no_ids
from cqe import fusion
from cqe.core import RewriteConfig, TokenEmbeddingMatrix, decontextualize, pool
from cqe.corpus import tokenize
from cqe.dense import load_embeddings, save_embeddings, search_dense
from cqe.fusion import FusionConfig, hybrid_combine, hybrid_search, rrf
from cqe.ranking import PassageTable, RankedEntry, RankedList, top_k
from cqe.sparse import build_index, search_sparse
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
    sp, ds = dict(zip(*sparse.columns())), dict(zip(*dense.columns()))
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
    """The same results as a list from :meth:`RankedList.from_columns`, over a table of its own ids."""
    return RankedList.from_columns(ranked.docids(), np.array([e.score for e in ranked]))


def eager(ranked):
    """The same results as a list from :meth:`RankedList.from_scores`, over a table of its own ids."""
    return RankedList.from_scores(list(zip(ranked.docids(), ranked.scores().tolist())))


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
        assert dict(zip(*got.columns()))["c"].hex() == "-0x0.0p+0"

    def test_one_element_lists(self):
        one = RankedList.from_scores([("a", 2.0)])
        other = RankedList.from_scores([("b", 0.25)])
        for sparse, dense in ((one, other), (one, one), (other, one)):
            assert exact(hybrid_combine(sparse, dense)) == exact(reference_hybrid_combine(sparse, dense))


@st.composite
def table_pairs(draw):
    """(sparse, dense) lists built by top_k over one table, whose row order is not its id order."""
    ids = draw(st.lists(st.text("abcz", min_size=1, max_size=3), min_size=1, max_size=14, unique=True))
    table = PassageTable(ids)
    rows = st.lists(st.integers(0, len(ids) - 1), min_size=1, max_size=len(ids), unique=True)
    sparse = draw(rows)
    mode = draw(st.sampled_from(["overlap", "same", "disjoint", "one"]))
    if mode == "disjoint" and len(sparse) < len(ids):
        dense = draw(st.lists(st.sampled_from(sorted(set(range(len(ids))) - set(sparse))), min_size=1, unique=True))
    else:
        dense = sparse if mode == "same" else sparse[:1] if mode == "one" else draw(rows)
    return tuple(
        top_k(np.array(r, dtype=np.intp), np.array([draw(TIE_SCORES) for _ in r]), table, len(r))
        for r in (sparse, dense)
    )


class TestHybridCombineRows:
    @settings(max_examples=300, deadline=None)
    @given(table_pairs(), ALPHAS)
    def test_rows_of_one_table_equal_reference_bit_for_bit(self, pair, alpha):
        sparse, dense = pair
        assert sparse.table is dense.table
        config = FusionConfig(alpha=alpha)
        got = hybrid_combine(sparse, dense, config)
        assert exact(got) == exact(reference_hybrid_combine(sparse, dense, config))
        assert got.table is sparse.table and [got.table.ids[r] for r in got.rows.tolist()] == got.docids()
        # the same lists without their table meet by id, to the same result, also when one side keeps its table
        assert exact(hybrid_combine(as_columns(sparse), as_columns(dense), config)) == exact(got)
        for mixed in ((sparse, eager(dense)), (eager(sparse), dense)):
            assert exact(hybrid_combine(*mixed, config)) == exact(reference_hybrid_combine(*mixed, config))
            assert exact(hybrid_combine(*mixed, config)) == exact(got)

    def test_ties_break_by_id_not_by_row(self):
        table = PassageTable(["c", "b", "a", "d"])  # row order is not id order
        sparse = top_k(np.array([0, 1]), np.array([2.0, 1.0]), table, 2)
        dense = top_k(np.array([2, 3]), np.array([0.5, 0.5]), table, 2)
        got = hybrid_combine(sparse, dense, FusionConfig(alpha=0.0))
        assert got.docids() == ["a", "b", "c", "d"] and got.rows.tolist() == [2, 1, 0, 3]


class TestHybridCombine:
    def test_doc_in_both_lists(self):
        sparse = RankedList.from_scores([("x", 10.0), ("y", 1.0)])
        dense = RankedList.from_scores([("x", 0.80), ("y", 0.2)])
        combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
        assert dict(zip(*combined.columns()))["x"] == pytest.approx(1.80)

    def test_sparse_only_doc_takes_dense_minimum(self):
        sparse = RankedList.from_scores([("x", 12.0), ("y", 1.0)])
        dense = RankedList.from_scores([("y", 0.9), ("z", 0.30)])
        combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
        assert dict(zip(*combined.columns()))["x"] == pytest.approx(1.50)

    def test_dense_only_doc_takes_sparse_minimum(self):
        sparse = RankedList.from_scores([("x", 12.0), ("y", 2.0)])
        dense = RankedList.from_scores([("y", 0.9), ("z", 0.30)])
        combined = hybrid_combine(sparse, dense, FusionConfig(alpha=0.1))
        assert dict(zip(*combined.columns()))["z"] == pytest.approx(0.1 * 2.0 + 0.30)

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
            min_dense = min(dict(zip(*dense.columns())).values())
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
        assert dict(zip(*fused.columns()))["x"] == pytest.approx(1 / 61 + 1 / 63)

    def test_matches_reciprocal_sum_oracle(self):
        rng = np.random.default_rng(44)
        docs = [f"d{i}" for i in range(10)]
        lists = []
        for _ in range(3):
            order = [docs[i] for i in rng.permutation(10)]
            lists.append(
                RankedList.from_scores([(d, float(10 - r)) for r, d in enumerate(order)])
            )
        # a run file's list keeps the file's ranks, which need not be 1..n
        lists.append(RankedList.from_columns(docs[:4], np.array([4.0, 3.0, 2.0, 1.0]), [2, 5, 5, 11]))
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


def reference_rrf(lists, rrf_k, k=None):
    """rrf in plain Python over lists of (id, score, rank): 1 / (rrf_k + rank) added over the lists in order,
    then (id, score, rank) rows by (-score, id), cut at ``k``."""
    accum = {}
    for ranked in lists:
        for docid, _, rank in ranked:
            accum[docid] = accum.get(docid, 0.0) + 1.0 / (rrf_k + rank)
    items = sorted(accum.items(), key=lambda it: (-it[1], it[0]))[:k]
    return [(d, s, r) for r, (d, s) in enumerate(items, start=1)]


@st.composite
def rrf_lists(draw):
    """Lists over few short ids and few distinct scores, so fused scores tie, with a run file's list whose
    ranks are free, such as [2, 5, 5, 11], among them."""
    ids = st.text("ab", min_size=1, max_size=2)
    scored = st.dictionaries(ids, st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=6)
    lists = [RankedList.from_scores(draw(scored).items()) for _ in range(draw(st.integers(1, 3)))]
    free = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    ranks = sorted(draw(st.lists(st.sampled_from([2, 5, 11]), min_size=len(free), max_size=len(free))))
    lists.insert(draw(st.integers(0, len(lists))), RankedList.from_columns(free, np.zeros(len(free)), ranks))
    return lists


@settings(max_examples=200, deadline=None)
@given(rrf_lists(), st.sampled_from([60.0, 1.0, 0.5]))
def test_rrf_matches_reference_bit_for_bit(lists, rrf_k):
    n = len({d for ranked in lists for d in ranked.docids()})
    for k in [None, *range(1, n + 2)]:
        want = [(d, s.hex(), r) for d, s, r in reference_rrf(lists, rrf_k, k)]
        assert exact(rrf(lists, FusionConfig(rrf_k=rrf_k), k)) == want


class CountingIds(Sequence):
    """A passage table's ids that count every id read through them."""

    def __init__(self, ids):
        self.ids, self.reads = ids, 0

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i):
        self.reads += len(range(len(self.ids))[i]) if isinstance(i, slice) else 1
        return self.ids[i]


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
            bag, got = hybrid_search(planted_index, planted.store, matrix, self.REWRITE, self.FUSION, 20, 5)
            assert bag == decontextualize(matrix, self.REWRITE)
            if sparse and dense:
                fused_turns += 1
                assert got.entries == hybrid_combine(sparse, dense, self.FUSION).entries[:5]
        assert fused_turns > 0

    def test_empty_bag_returns_the_dense_list(self, planted, planted_index):
        rng = np.random.default_rng(47)
        matrix = TokenEmbeddingMatrix(["[cls]", "[sep]"], rng.standard_normal((2, planted.store.dim)), 0)
        assert decontextualize(matrix, self.REWRITE) == []
        bag, got = hybrid_search(planted_index, planted.store, matrix, self.REWRITE, self.FUSION, 20, 5)
        assert bag == []
        assert got.entries == search_dense(planted.store, pool(matrix), 20).entries[:5]

    @pytest.mark.parametrize("k", [1, 7, 10_000])
    def test_equals_reference_cut_at_k(self, planted, planted_index, k):
        for matrix in self.turn_matrices(planted):
            sparse = search_sparse(planted_index, decontextualize(matrix, self.REWRITE), 20)
            dense = search_dense(planted.store, pool(matrix), 20)
            bag, got = hybrid_search(planted_index, planted.store, matrix, self.REWRITE, self.FUSION, 20, k)
            assert bag == decontextualize(matrix, self.REWRITE)
            full = reference_hybrid_combine(sparse, dense, self.FUSION) if sparse else dense
            assert exact(got) == exact(full)[:k]
            assert len(got) == min(k, len(full))

    def test_a_turn_builds_only_the_ids_it_returns(self, planted, planted_index, tmp_path, monkeypatch):
        index = build_index(planted.corpus)  # its own: the test swaps its table's ids
        save_embeddings(planted.store, manifest := str(tmp_path / "store.json"))
        store = load_embeddings(manifest, index.table)
        assert store.table is index.table
        index.table.ranks  # built before the count starts: it reads every id once per table
        index.table.ids = counting = CountingIds(index.table.ids)
        searched = []  # the sparse and dense lists hybrid_search fuses
        for name in ("search_sparse", "search_dense"):
            search = getattr(fusion, name)
            monkeypatch.setattr(fusion, name, lambda *a, search=search: searched.append(search(*a)) or searched[-1])
        fused_turns = 0
        for matrix in self.turn_matrices(planted):
            want = hybrid_search(planted_index, planted.store, matrix, self.REWRITE, self.FUSION, 1000, 10)[1]
            searched.clear()
            counting.reads = 0
            got = hybrid_search(index, store, matrix, self.REWRITE, self.FUSION, 1000, 10)[1]
            assert 0 < len(got) <= 10 and counting.reads == 0
            assert all(r.table is index.table and holds_no_ids(r) for r in searched)
            fused_turns += all(searched) and sum(map(len, searched)) > 10
            entries = got.entries  # what converse prints
            assert counting.reads == len(got) and exact(RankedList(entries)) == exact(want)
        assert fused_turns > 0

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
