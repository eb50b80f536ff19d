"""Weak labels, triplet sampling, losses, gradients, and the training loop."""

import dataclasses
import math
import os
import re
import sys
import tempfile
from collections import Counter

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import dense_recall
from cqe import trainer
from cqe.core import Session, Turn, token_norm_report
from cqe.corpus import WHITESPACE, Corpus, Passage, tokenize
from cqe.dense import PassageEmbeddingStore
from cqe.ranking import RankedList
from cqe.sparse import bm25_score, build_index, search_sparse
from cqe.trainer import (
    UNK_TOKEN,
    CosineTeacher,
    HashingTextEmbedder,
    TableTeacher,
    ToyQueryEncoder,
    TrainConfig,
    TrainingInstance,
    TurnLabels,
    batch_gradients,
    build_weak_labels,
    contrastive_loss,
    distill_loss,
    load_weak_labels,
    save_weak_labels,
    train,
)


def finite_difference(loss_fn, param, eps=1e-5):
    """Central differences over every coordinate of param (mutated in place)."""
    grad = np.zeros_like(param)
    flat, grad_flat = param.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss_fn()
        flat[i] = orig - eps
        down = loss_fn()
        flat[i] = orig
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


class TestHashingTextEmbedder:
    def test_deterministic_and_unit_norm(self):
        a = HashingTextEmbedder(16)
        b = HashingTextEmbedder(16)
        assert np.array_equal(a.token_vector("apple"), b.token_vector("apple"))
        assert np.linalg.norm(a.token_vector("apple")) == pytest.approx(1.0)

    def test_embed_is_token_mean(self):
        emb = HashingTextEmbedder(8)
        expected = (emb.token_vector("red") + emb.token_vector("fox")) / 2
        assert np.allclose(emb.embed("red fox"), expected)

    def test_empty_text_is_zero(self):
        assert np.array_equal(HashingTextEmbedder(4).embed("..."), np.zeros(4))


class TestTeachers:
    def test_cosine_teacher_self_similarity(self, planted):
        passage = list(planted.corpus)[0]
        (self_score,), (other,) = planted.teacher.scores([passage.text, "unrelated nonsense zz"], [passage.id])
        assert -1.0 - 1e-9 <= other <= self_score <= 1.0 + 1e-9

    def test_table_teacher_round_trip(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"query": "q text", "id": "p1", "score": 0.75}\n'
            '{"query": "q text", "id": "p3", "score": -2}\n'
            '{"query": "other", "id": "p1", "score": 0.5}\n'
        )
        teacher = TableTeacher.from_file(str(path))
        scores = teacher.scores(["q text", "other"], ["p1"])
        assert scores.dtype == np.float64 and scores.tolist() == [[0.75], [0.5]]
        assert teacher.scores(["q text"], ["p3", "p1"]).tolist() == [[-2.0, 0.75]]
        assert teacher.scores([], ["p1"]).shape == (0, 1)
        assert teacher.scores(["q text"], []).shape == (1, 0)

    def test_table_teacher_missing_pair_names_query_and_passage(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"query": "q text", "id": "p1", "score": 0.75}\n')
        teacher = TableTeacher.from_file(str(path))
        with pytest.raises(ValueError, match="no teacher score for query 'q text' and passage 'p2'"):
            teacher.scores(["q text"], ["p1", "p2"])
        with pytest.raises(ValueError, match="no teacher score for query 'other' and passage 'p1'"):
            teacher.scores(["q text", "other"], ["p1"])

    def test_table_teacher_rejects_duplicate_keys(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"query": "q text", "id": "p1", "score": 0.75}\n'
            '{"query": "q text", "id": "p2", "score": 0.5}\n'
            '{"query": "q text", "id": "p1", "score": 0.25}\n'
        )
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: duplicate"):
            TableTeacher.from_file(str(path))


class _ReferenceCosineTeacher:
    """Recomputes every cosine score from scratch, one pair at a time, with no cache of any kind."""

    def __init__(self, store, embedder=None):
        self.store = store
        self.embedder = embedder or HashingTextEmbedder(store.dim)

    def score(self, query_text, passage_id):
        q = self.embedder.embed(query_text)
        v = self.store.vectors[self.store.table.rows([passage_id])[0]].astype(np.float64)
        nq = np.linalg.norm(q)
        nv = np.linalg.norm(v)
        if nq == 0.0 or nv == 0.0:
            return 0.0
        return float(q @ v / (nq * nv))

    def scores(self, texts, ids):
        return np.array([[self.score(text, pid) for pid in ids] for text in texts]).reshape(len(texts), len(ids))


class _CountingEmbedder(HashingTextEmbedder):
    def __init__(self, dim):
        super().__init__(dim)
        self.texts = Counter()

    def embed(self, text):
        self.texts[text] += 1
        return super().embed(text)


def _store_with_zero_row(planted):
    """The planted store with its fourth vector zeroed, and that passage's id."""
    vectors = planted.store.vectors.copy()
    vectors[3] = 0.0
    return PassageEmbeddingStore(planted.store.ids, vectors), planted.store.ids[3]


class TestCosineTeacherMemo:
    """With its text memo and norm cache, CosineTeacher.scores returns exactly the floats the
    uncached per-pair formula gives."""

    def test_weak_labels_equal_reference(self, planted, planted_index):
        got = build_weak_labels(planted.sessions, planted_index, CosineTeacher(planted.store))
        want = build_weak_labels(planted.sessions, planted_index, _ReferenceCosineTeacher(planted.store))
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            assert (a.qid, a.rewrite, a.positives, a.bm25_pool) == (b.qid, b.rewrite, b.positives, b.bm25_pool)
            assert a.teacher_pool == b.teacher_pool  # exact floats

    def test_soft_label_training_is_bitwise_equal_to_reference(self, planted, planted_training):
        untrained, _, train_labels = planted_training
        cfg = TrainConfig(steps=60, seed=3, use_soft_labels=True, use_hard_negatives=True)
        runs = []
        for teacher in (CosineTeacher(planted.store), _ReferenceCosineTeacher(planted.store)):
            encoder = untrained.copy()
            losses = train(encoder, train_labels, planted.sessions, planted.store, cfg, teacher=teacher)
            runs.append((encoder.embedding, encoder.projection, losses))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

    def test_zero_norm_query_and_zero_store_row_match_reference(self, planted):
        store, zero_id = _store_with_zero_row(planted)
        texts = ["...", planted.sessions[0].turns[0].manual_rewrite, "unrelated nonsense zz"]
        ids = [zero_id, *planted.store.ids[4:10], zero_id]
        got = CosineTeacher(store).scores(texts, ids)
        want = _ReferenceCosineTeacher(store).scores(texts, ids)
        assert got.dtype == np.float64 and got.shape == (3, 8)
        assert got.tobytes() == want.tobytes()
        assert not got[0].any() and not got[:, 0].any() and got[1:, 1:-1].all()

    def test_pair_score_does_not_depend_on_the_call(self, planted):
        """Whatever ids share the call, in whatever order, and whatever the norm cache holds."""
        text = planted.sessions[1].turns[0].manual_rewrite
        ids = planted.store.ids
        want = _ReferenceCosineTeacher(planted.store).scores([text], ids)[0]
        rng = np.random.default_rng(11)
        teacher = CosineTeacher(planted.store)
        for _ in range(20):
            picked = rng.choice(len(ids), size=int(rng.integers(1, 12)))
            got = teacher.scores([text, "other words"], [ids[i] for i in picked])[0]
            assert got.tobytes() == want[picked].tobytes()
        fresh = CosineTeacher(planted.store).scores([text], ids)[0]  # no cached norm yet
        assert fresh.tobytes() == want.tobytes()
        assert teacher.scores([text], ids)[0].tobytes() == want.tobytes()  # some norms cached

    def test_each_text_embedded_once(self, planted, planted_index):
        embedder = _CountingEmbedder(planted.store.dim)
        teacher = CosineTeacher(planted.store, embedder)
        labels = build_weak_labels(planted.sessions, planted_index, teacher)
        for turn in labels:
            ids, scores = zip(*turn.teacher_pool)
            assert teacher.scores([turn.rewrite], ids)[0].tolist() == list(scores)
        assert embedder.texts == Counter({t.manual_rewrite: 1 for s in planted.sessions for t in s.turns})

    def test_random_store_scores_equal_the_float32_row_formula_bitwise(self):
        """The per-pair formula over the float32 rows, each widened to float64 on its own."""
        rng = np.random.default_rng(21)
        f32 = rng.standard_normal((300, 24)).astype(np.float32)
        f32[7] = 0.0
        ids = [f"p{i}" for i in rng.permutation(300)]
        texts = ["alpha beta", "gamma delta gamma", "...", "alpha"]
        embedder = HashingTextEmbedder(24)
        picked = rng.choice(300, size=120).tolist() + [7]
        want = np.zeros((len(texts), len(picked)))
        for i, text in enumerate(texts):
            q = embedder.embed(text)
            nq = np.linalg.norm(q)
            for j, row in enumerate(picked):
                v = f32[row].astype(np.float64)
                nv = math.sqrt(v.dot(v))
                if nq != 0.0 and nv != 0.0:
                    want[i, j] = q.dot(v) / (nq * nv)
        got = CosineTeacher(PassageEmbeddingStore(ids, f32), embedder).scores(texts, [ids[r] for r in picked])
        assert got.tobytes() == want.tobytes()
        assert want[:, -1].tolist() == [0.0] * 4 and want[:2, :-1].all()

    def test_zero_query_scores_zero(self, planted):
        assert CosineTeacher(planted.store).scores(["..."], planted.store.ids[:3]).tolist() == [[0.0] * 3]

    def test_unknown_passage_id_is_refused(self, planted):
        with pytest.raises(ValueError, match="unknown passage id 'nope'"):
            CosineTeacher(planted.store).scores(["a"], [planted.store.ids[0], "nope"])


class _BM25Teacher:
    """Teacher that mirrors BM25 exactly, for ordering-equality tests."""

    def __init__(self, index):
        self.index = index

    def scores(self, texts, ids):
        return [[bm25_score(self.index, tokenize(text), pid) for pid in ids] for text in texts]


class TestBuildWeakLabels:
    def tiny_setup(self):
        corpus = Corpus(
            [Passage("p1", "apple pie"), Passage("p2", "apple tart"), Passage("p3", "apple core")]
        )
        sessions = [Session("s", [Turn("tell me about apple", "apple")])]
        return sessions, build_index(corpus)

    def test_pool_exhausted_yields_all_in_teacher_order(self):
        sessions, index = self.tiny_setup()

        class Preferring:
            order = {"p2": 3.0, "p3": 2.0, "p1": 1.0}

            def scores(self, texts, ids):
                return [[self.order[pid] for pid in ids] for _ in texts]

        labels = build_weak_labels(sessions, index, Preferring())
        assert labels[0].positives == ["p2", "p3", "p1"]

    def test_tied_table_teacher_scores_label_like_from_scores(self):
        ids = ["p9", "p3", "p7", "p1", "p5", "p2", "p8"]  # row order is not id order
        corpus = Corpus([Passage(pid, f"apple w{i % 2}") for i, pid in enumerate(ids)])
        sessions = [Session("s", [Turn("about apple", "apple"), Turn("and w1", "apple w1")])]
        tied = [1.0, 0.0, -0.0, 1.0, 0.5, -0.0, 1.0]
        teacher = TableTeacher({(t.manual_rewrite, pid): s for t in sessions[0].turns for pid, s in zip(ids, tied)})
        index = build_index(corpus)
        got = build_weak_labels(sessions, index, teacher, pool_size=5)
        want = []
        for i, turn in enumerate(sessions[0].turns):
            pool = search_sparse(index, tokenize(turn.manual_rewrite), 1000).docids()
            rescored = RankedList.from_scores(list(zip(pool, teacher.scores([turn.manual_rewrite], pool)[0].tolist())))
            teacher_pool = [(e.docid, e.score) for e in rescored.head(5)]
            want.append(TurnLabels(sessions[0].qid(i), turn.manual_rewrite, rescored.head(3).docids(), pool[:5],
                                   teacher_pool))
        assert got == want and len(got) == 2
        assert [[(d, type(s), s.hex()) for d, s in t.teacher_pool] for t in got] == [
            [(d, float, s.hex()) for d, s in t.teacher_pool] for t in want
        ]

    def test_bm25_teacher_reproduces_bm25_top3(self, planted, planted_index):
        teacher = _BM25Teacher(planted_index)
        labels = build_weak_labels(planted.sessions[:2], planted_index, teacher)
        for turn_labels in labels:
            rewrite_tokens = tokenize(turn_labels.rewrite)
            expected = search_sparse(planted_index, rewrite_tokens, 3).docids()
            assert turn_labels.positives == expected

    def test_positives_match_exhaustive_rescoring_oracle(self, planted, planted_index, planted_labels):
        reference = _ReferenceCosineTeacher(planted.store)
        for turn_labels in list(planted_labels)[:6]:
            pool = search_sparse(
                planted_index, tokenize(turn_labels.rewrite), len(planted.corpus)
            )
            rescored = sorted(
                ((e.docid, reference.score(turn_labels.rewrite, e.docid))
                 for e in pool),
                key=lambda it: (-it[1], it[0]),
            )
            assert turn_labels.positives == [d for d, _ in rescored[:3]]
            assert turn_labels.teacher_pool == [
                (d, pytest.approx(s)) for d, s in rescored[:200]
            ]
            assert set(turn_labels.positives) <= {d for d, _ in turn_labels.teacher_pool}

    def test_index_id_absent_from_store_is_refused(self):
        sessions, index = self.tiny_setup()
        store = PassageEmbeddingStore(["p1", "p2"], np.ones((2, 4), dtype=np.float32))  # no row for p3
        with pytest.raises(ValueError, match="^unknown passage id 'p3'$"):
            build_weak_labels(sessions, index, CosineTeacher(store))

    def test_missing_rewrite_rejected(self):
        _, index = self.tiny_setup()
        sessions = [Session("s", [Turn("about apples", None)])]
        with pytest.raises(ValueError, match="manual rewrite"):
            build_weak_labels(sessions, index, _BM25Teacher(index))

    @pytest.mark.parametrize("depth,pool_size", [(0, 200), (1000, 0), (1000, -1)])
    def test_depth_and_pool_size_must_be_positive(self, depth, pool_size):
        sessions, index = self.tiny_setup()
        with pytest.raises(ValueError, match="must be >= 1"):
            build_weak_labels(sessions, index, _BM25Teacher(index), depth, pool_size)

    def test_too_few_candidates_skips_with_warning(self):
        _, index = self.tiny_setup()
        sessions = [Session("s", [Turn("zebra", "zebra")])]
        with pytest.warns(UserWarning, match="s_1"):
            labels = build_weak_labels(sessions, index, _BM25Teacher(index))
        assert len(labels) == 0

    def test_label_file_round_trip(self, planted_labels, tmp_path):
        path = str(tmp_path / "labels.jsonl")
        save_weak_labels(planted_labels, path)
        loaded = load_weak_labels(path)
        assert len(loaded) == len(planted_labels)
        for a, b in zip(loaded, planted_labels):
            assert (a.qid, a.rewrite, a.positives, a.bm25_pool) == (
                b.qid, b.rewrite, b.positives, b.bm25_pool,
            )
            assert a.teacher_pool == b.teacher_pool


def labels_line(qid, teacher_pool) -> str:
    return f'{{"qid": "{qid}", "rewrite": "fox", "positives": ["p0"], "bm25_pool": [], "teacher_pool": {teacher_pool}}}\n'


class TestLoadTeacherPool:
    def test_scores_load_as_floats(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(labels_line("s_1", '[{"id": "p0", "score": 2}, {"id": "p1", "score": -0.5, "note": 1}]')
                        + labels_line("s_2", '[{"id": "p2", "score": 1.7976931348623157e308}]')
                        + labels_line("s_3", "[]"))
        pools = [turn.teacher_pool for turn in load_weak_labels(str(path))]
        assert pools == [[("p0", 2.0), ("p1", -0.5)], [("p2", sys.float_info.max)], []]
        assert all(type(score) is float for pool in pools for _, score in pool)

    @pytest.mark.parametrize(
        "teacher_pool,message",
        [
            ('[{"id": "p0", "score": 1.0}, ["p1", 1.0]]', "'teacher_pool' entries must be objects"),
            ('[{"id": "p0", "score": 1.0}, {"score": 1.0}]', "missing field 'id'"),
            ('[{"id": "p0", "score": 1.0}, {"id": 5, "score": 1.0}]', "'id' must be a string, got int"),
            ('[{"id": "p0", "score": 1.0}, {"id": "p1"}]', "missing field 'score'"),
            ('[{"id": "p0", "score": 1.0}, {"id": "p1", "score": true}]',
             "teacher score of 'p1' must be a finite number, got True"),
            ('[{"id": "p0", "score": NaN}]', "teacher score of 'p0' must be a finite number, got nan"),
            ('[{"id": "p0", "score": -Infinity}]', "teacher score of 'p0' must be a finite number, got -inf"),
            ('[{"id": "p0", "score": "1.0"}]', "teacher score of 'p0' must be a finite number, got '1.0'"),
            ('[{"id": "p0", "score": 1' + "0" * 400 + "}]",
             f"teacher score of 'p0' must be a finite number, got {10**400!r}"),
            ('"p0"', "'teacher_pool' entries must be objects"),
            ("7", "'int' object is not iterable"),
        ],
    )
    def test_bad_entry_message(self, tmp_path, teacher_pool, message):
        path = tmp_path / "labels.jsonl"
        path.write_text(labels_line("s_1", "[]") + labels_line("s_2", teacher_pool))
        with pytest.raises(ValueError) as info:
            load_weak_labels(str(path))
        assert str(info.value) == f"{path}:2: {message}"


def single_turn_labels(n_negatives, positives=("g1", "g2", "g3")):
    pool = list(positives) + [f"n{i}" for i in range(n_negatives)]
    labels = [
        TurnLabels(
            qid="s_1",
            rewrite="query text",
            positives=list(positives),
            bm25_pool=pool,
            teacher_pool=[(d, float(-i)) for i, d in enumerate(pool)],
        )
    ]
    sessions = [Session("s", [Turn("query text", "query text")])]
    return labels, sessions


def multi_turn_labels():
    """Four turns over one id list; each turn has three positives and five negatives."""
    sessions = [
        Session(s, [Turn(f"{s} turn {i}", f"{s} rewrite {i}") for i in range(2)]) for s in ("a", "b")
    ]
    ids = [f"p{j}" for j in range(8)]
    qids = [s.qid(i) for s in sessions for i in range(2)]
    labels = [
        TurnLabels(
            qid, f"rewrite {n}", ids[n : n + 3], list(ids),
            [(d, -float(j)) for j, d in enumerate(reversed(ids))],
        )
        for n, qid in enumerate(qids)
    ]
    return labels, sessions, qids


# Draws of seed 11 over three epochs, one instance per turn per epoch;
# recorded before the draws cached their per-turn work.
PINNED_DRAWS = {
    False: [
        ("p0", "p3"), ("p2", "p6"), ("p3", "p6"), ("p5", "p7"), ("p1", "p6"), ("p3", "p0"),
        ("p4", "p5"), ("p5", "p2"), ("p0", "p5"), ("p2", "p5"), ("p3", "p6"), ("p5", "p6"),
    ],
    True: [
        ("p0", "p7"), ("p2", "p4"), ("p3", "p1"), ("p5", "p0"), ("p1", "p4"), ("p3", "p7"),
        ("p4", "p5"), ("p5", "p2"), ("p0", "p5"), ("p2", "p5"), ("p3", "p1"), ("p5", "p1"),
    ],
}


@pytest.fixture
def handed(monkeypatch):
    """The instances train() hands batch_gradients, in order, recorded by a stand-in that
    returns zero gradients."""
    instances = []

    def record(encoder, batch, *_):
        instances.extend(batch)
        return 0.0, np.zeros_like(encoder.embedding), np.zeros_like(encoder.projection)

    monkeypatch.setattr(trainer, "batch_gradients", record)
    return instances


def train_on(labels, sessions, seed, batch_size, steps=1, hard=False):
    """train() a fresh encoder over a store of equal rows holding every labelled id."""
    ids = sorted({d for lab in labels for d in lab.positives + lab.bm25_pool + [d for d, _ in lab.teacher_pool]})
    store = PassageEmbeddingStore(ids, np.ones((len(ids), 2)))
    cfg = TrainConfig(batch_size=batch_size, steps=steps, seed=seed, use_hard_negatives=hard)
    train(ToyQueryEncoder.create([], dim=2), labels, sessions, store, cfg)


def pairs(instances):
    return [(inst.positive_id, inst.negative_id) for inst in instances]


class TestTrainDraws:
    @pytest.mark.parametrize("hard", [False, True])
    def test_draws_over_epochs_are_pinned(self, handed, hard):
        labels, sessions, qids = multi_turn_labels()
        train_on(labels, sessions, 11, len(qids), steps=3, hard=hard)
        assert [inst.qid for inst in handed] == qids * 3
        by_qid = {s.qid(i): (s, i) for s in sessions for i in range(len(s.turns))}
        for inst in handed:
            session, i = by_qid[inst.qid]
            assert (inst.context_tokens, inst.query_tokens) == session.tokens_for_turn(i)
        assert pairs(handed) == PINNED_DRAWS[hard]

    def test_single_eligible_negative_is_forced(self, handed):
        labels, sessions = single_turn_labels(1)
        train_on(labels, sessions, 0, 1)
        [(positive, negative)] = pairs(handed)
        assert negative == "n0"
        assert positive in {"g1", "g2", "g3"}

    def test_same_seed_gives_same_sequence(self, handed):
        labels, sessions = single_turn_labels(20)
        for _ in range(2):
            train_on(labels, sessions, 99, 30)
        assert pairs(handed[:30]) == pairs(handed[30:])

    def test_negative_frequencies_near_uniform(self, handed):
        labels, sessions = single_turn_labels(50)
        train_on(labels, sessions, 7, 10000)
        counts = Counter(negative for _, negative in pairs(handed))
        assert sorted(counts) == sorted(f"n{i}" for i in range(50))
        # one goodness-of-fit test over all 50 cells, not a 3-sigma bound per cell
        assert stats.chisquare(list(counts.values())).pvalue >= 0.001

    def test_positive_frequencies_near_uniform(self, handed):
        labels, sessions = single_turn_labels(10)
        train_on(labels, sessions, 8, 9000)
        counts = Counter(positive for positive, _ in pairs(handed))
        sigma = math.sqrt(9000 * (1 / 3) * (2 / 3))
        for positive in ("g1", "g2", "g3"):
            assert abs(counts[positive] - 3000) <= 3 * sigma

    def test_hard_negatives_use_teacher_pool(self, handed):
        # a single hard negative: every draw takes it
        labels = [
            TurnLabels(
                qid="s_1",
                rewrite="q",
                positives=["g1", "g2", "g3"],
                bm25_pool=["g1", "g2", "g3", "easy1", "easy2"],
                teacher_pool=[(d, 0.0) for d in ["g1", "g2", "g3", "hard1"]],
            )
        ]
        sessions = [Session("s", [Turn("q", "q")])]
        train_on(labels, sessions, 3, 5, hard=True)
        assert {negative for _, negative in pairs(handed)} == {"hard1"}

    def test_unknown_turn_is_refused_before_any_draw(self, handed):
        labels, sessions, _ = multi_turn_labels()
        labels[3].qid = "nosuch_1"
        with pytest.raises(ValueError, match=re.escape("labels refer to unknown turn 'nosuch_1'")):
            train_on(labels, sessions, 0, 1)
        assert handed == []

    def test_turn_without_negatives_fails_at_its_first_draw(self, handed):
        labels, sessions, qids = multi_turn_labels()
        labels[1].bm25_pool = list(labels[1].positives)
        with pytest.raises(ValueError, match=re.escape(f"turn {qids[1]!r} has no eligible negatives")):
            train_on(labels, sessions, 0, 1, steps=4)
        assert [inst.qid for inst in handed] == qids[:1]


class TestContrastiveLoss:
    def test_single_positive_passage(self):
        q = np.array([[0.4, -0.2]])
        p = np.array([[1.0, 2.0]])
        loss, grad = contrastive_loss(q, p, [0], tau=1.0)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((1, 2)))

    def test_uniform_scores_give_log_n(self):
        q = np.array([[0.0, 0.0]])
        p = np.random.default_rng(60).standard_normal((7, 2))
        loss, _ = contrastive_loss(q, p, [3], tau=1.0)
        assert loss == pytest.approx(math.log(7), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        q = rng.standard_normal((4, 8))
        p = rng.standard_normal((8, 8))
        pos = [int(i) for i in rng.integers(0, 8, size=4)]
        tau = 0.7
        _, grad = contrastive_loss(q, p, pos, tau)
        numeric = finite_difference(lambda: contrastive_loss(q, p, pos, tau)[0], q)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-8)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            q = rng.standard_normal((3, 4))
            p = rng.standard_normal((6, 4))
            loss, _ = contrastive_loss(q, p, [0, 1, 2], tau=float(rng.uniform(0.2, 3)))
            assert loss >= 0.0

    def test_validation(self):
        q = np.zeros((1, 2))
        p = np.zeros((2, 2))
        with pytest.raises(ValueError, match="tau"):
            contrastive_loss(q, p, [0], tau=0.0)
        with pytest.raises(ValueError, match="positive"):
            contrastive_loss(q, p, [5], tau=1.0)
        with pytest.raises(ValueError, match="positive"):
            contrastive_loss(q, p, [None], tau=1.0)


class TestSoftmaxNormalization:
    def test_probabilities_sum_to_one(self):
        from cqe.trainer import _log_softmax

        rng = np.random.default_rng(59)
        for _ in range(50):
            x = rng.standard_normal(int(rng.integers(2, 40))) * float(rng.uniform(0.1, 20))
            total = float(np.exp(_log_softmax(x)).sum())
            assert abs(total - 1.0) < 1e-12


class TestDistillLoss:
    def test_identical_scores_zero_loss(self):
        s = np.array([0.3, -1.2, 0.9])
        loss, grad = distill_loss(s, s.copy(), tau=1.0)
        assert loss == 0.0
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_teacher_shift_invariance(self):
        student = np.array([0.1, 0.5, -0.3])
        teacher = np.array([2.0, 0.0, 1.0])
        base, _ = distill_loss(student, teacher, tau=1.0)
        shifted, _ = distill_loss(student, teacher + 10.0, tau=1.0)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_matches_direct_kl_summation(self):
        student = np.array([0.0, 0.0, 0.0])
        teacher = np.array([2.0, 0.0, 0.0])
        loss, _ = distill_loss(student, teacher, tau=1.0)
        z_t = math.exp(2) + 2
        p_t = [math.exp(2) / z_t, 1 / z_t, 1 / z_t]
        p_s = [1 / 3] * 3
        expected = sum(t * (math.log(t) - math.log(s)) for t, s in zip(p_t, p_s))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(63)
        student = rng.standard_normal(9)
        teacher = rng.standard_normal(9)
        tau = 1.4
        _, grad = distill_loss(student, teacher, tau)
        numeric = finite_difference(lambda: distill_loss(student, teacher, tau)[0], student)
        np.testing.assert_allclose(grad, numeric, rtol=1e-4, atol=1e-8)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            loss, _ = distill_loss(
                rng.standard_normal(n), rng.standard_normal(n), float(rng.uniform(0.2, 3))
            )
            assert loss >= 0.0

    def test_matrix_rows_equal_each_row_alone(self):
        student, teacher = np.random.default_rng(65).standard_normal((2, 5, 7))
        losses, grad = distill_loss(student, teacher, tau=0.7)
        for i in range(5):
            loss, row_grad = distill_loss(student[i], teacher[i], tau=0.7)
            assert isinstance(loss, float) and loss == losses[i]
            assert np.array_equal(row_grad, grad[i])

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            distill_loss(np.zeros(3), np.zeros(4), tau=1.0)
        with pytest.raises(ValueError, match="length"):
            distill_loss(np.zeros((2, 3)), np.zeros((3, 3)), tau=1.0)
        with pytest.raises(ValueError, match="length"):
            distill_loss(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), tau=1.0)
        with pytest.raises(ValueError, match="at least 2"):
            distill_loss(np.zeros((3, 1)), np.zeros((3, 1)), tau=1.0)
        with pytest.raises(ValueError, match="at least 2"):
            distill_loss(np.zeros(1), np.zeros(1), tau=1.0)


def random_training_batch(rng, n_queries=3, n_pool=6, dim=5, vocab_size=12):
    tokens = [f"tok{i}" for i in range(vocab_size)]
    encoder = ToyQueryEncoder.create(tokens, dim, seed=int(rng.integers(10**6)))
    encoder.projection += 0.3 * rng.standard_normal((dim, dim))
    pool_ids = [f"p{i}" for i in range(n_pool)]
    passage_vecs = rng.standard_normal((n_pool, dim))
    instances = []
    teacher_rows = []
    for q in range(n_queries):
        n_ctx = int(rng.integers(0, 4))
        n_qry = int(rng.integers(1, 4))
        ctx = [tokens[i] for i in rng.integers(0, vocab_size, size=n_ctx)]
        qry = [tokens[i] for i in rng.integers(0, vocab_size, size=n_qry)]
        pos, neg = (int(i) for i in rng.choice(n_pool, size=2, replace=False))
        instances.append(TrainingInstance(f"q{q}", ctx, qry, "rewrite", pool_ids[pos], pool_ids[neg]))
        teacher_rows.append([float(rng.standard_normal()) for _ in pool_ids])
    return encoder, instances, pool_ids, passage_vecs, np.array(teacher_rows)


def reference_gradients(encoder, instances, pool_ids, passage_vecs, tau, teacher_scores=None):
    """batch_gradients as it was written with one loop over instances for pooling, loss terms and
    accumulation, and one teacher dict per instance for soft labels."""
    passage_vecs = np.asarray(passage_vecs, dtype=np.float64)
    n_queries = len(instances)
    token_idx = []
    query_vecs = np.empty((n_queries, encoder.dim))
    for i, inst in enumerate(instances):
        idx = encoder.token_indices(list(inst.context_tokens) + list(inst.query_tokens))
        token_idx.append(idx)
        rows = encoder.embedding[idx] @ encoder.projection
        query_vecs[i] = rows[0] + (rows - rows[0]).mean(axis=0)
    if teacher_scores is not None:
        teacher_dicts = [dict(zip(pool_ids, map(float, row))) for row in teacher_scores]
        total = 0.0
        grad_q = np.empty_like(query_vecs)
        for i in range(n_queries):
            student = query_vecs[i] @ passage_vecs.T
            teacher = np.array([teacher_dicts[i][pid] for pid in pool_ids])
            item_loss, grad_s = distill_loss(student, teacher, tau)
            total += item_loss
            grad_q[i] = grad_s @ passage_vecs
        loss = total / n_queries
        grad_q /= n_queries
    else:
        positives = [list(pool_ids).index(inst.positive_id) for inst in instances]
        loss, grad_q = contrastive_loss(query_vecs, passage_vecs, positives, tau)
    grad_embedding = np.zeros_like(encoder.embedding)
    grad_projection = np.zeros_like(encoder.projection)
    for i, idx in enumerate(token_idx):
        per_row = grad_q[i] / idx.size
        grad_projection += np.outer(encoder.embedding[idx].sum(axis=0), per_row)
        np.add.at(grad_embedding, idx, per_row @ encoder.projection.T)
    return loss, grad_embedding, grad_projection


class TestBatchGradients:
    @pytest.mark.parametrize("soft", [False, True])
    def test_parameter_gradients_match_finite_differences(self, soft):
        rng = np.random.default_rng(65)
        for _ in range(5):
            encoder, instances, pool_ids, passage_vecs, teacher = random_training_batch(rng)
            teacher = teacher if soft else None
            tau = float(rng.uniform(0.5, 2.0))

            def loss_fn():
                return batch_gradients(encoder, instances, pool_ids, passage_vecs, tau, teacher)[0]

            _, grad_emb, grad_proj = batch_gradients(
                encoder, instances, pool_ids, passage_vecs, tau, teacher
            )
            np.testing.assert_allclose(
                grad_emb, finite_difference(loss_fn, encoder.embedding), rtol=1e-4, atol=1e-8
            )
            np.testing.assert_allclose(
                grad_proj, finite_difference(loss_fn, encoder.projection), rtol=1e-4, atol=1e-8
            )

    @pytest.mark.parametrize("soft", [False, True])
    def test_teacher_matrix_matches_per_instance_dicts_bit_for_bit(self, soft):
        """Both objectives share the batch-wide accumulation, checked against the per-instance loop."""
        rng = np.random.default_rng(66)
        for _ in range(50):
            n_queries, n_pool = int(rng.integers(1, 8)), int(rng.integers(2, 12))
            encoder, instances, pool_ids, passage_vecs, teacher = random_training_batch(rng, n_queries, n_pool)
            teacher = teacher if soft else None
            tau = float(rng.uniform(0.2, 3.0))
            loss, grad_emb, grad_proj = batch_gradients(encoder, instances, pool_ids, passage_vecs, tau, teacher)
            ref_loss, ref_emb, ref_proj = reference_gradients(
                encoder, instances, pool_ids, passage_vecs, tau, teacher
            )
            assert loss.hex() == ref_loss.hex()
            assert grad_emb.tobytes() == ref_emb.tobytes()
            assert grad_proj.tobytes() == ref_proj.tobytes()

    def test_instance_without_tokens_is_refused(self):
        encoder, instances, pool_ids, passage_vecs, _ = random_training_batch(np.random.default_rng(68))
        instances[1] = TrainingInstance("empty", [], [], "r", pool_ids[0], pool_ids[1])
        with pytest.raises(ValueError, match="turn 'empty' has no tokens"):
            batch_gradients(encoder, instances, pool_ids, passage_vecs, 1.0)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 6), (3, 6, 1), (18,)])
    def test_teacher_matrix_of_wrong_shape_is_refused(self, shape):
        encoder, instances, pool_ids, passage_vecs, _ = random_training_batch(np.random.default_rng(67))
        with pytest.raises(ValueError, match="teacher scores"):
            batch_gradients(encoder, instances, pool_ids, passage_vecs, 1.0, np.zeros(shape))


class TestToyQueryEncoder:
    def test_unknown_tokens_share_dedicated_row(self):
        encoder = ToyQueryEncoder.create(["alpha", "beta"], dim=4, seed=0)
        m = encoder.encode([], ["zzz", "yyy"])
        assert np.array_equal(m.vectors[0], m.vectors[1])

    def test_encode_layout(self):
        encoder = ToyQueryEncoder.create(["alpha", "beta"], dim=4, seed=0)
        m = encoder.encode(["alpha"], ["beta", "alpha"])
        assert m.tokens == ["alpha", "beta", "alpha"]
        assert m.context_len == 1 and m.query_len == 2
        expected = encoder.embedding[encoder.vocab["beta"]] @ encoder.projection
        assert np.allclose(m.vectors[1], expected)

    def test_checkpoint_round_trip(self, tmp_path):
        encoder = ToyQueryEncoder.create([f"t{i}" for i in range(9)], dim=6, seed=3)
        encoder.projection += 0.1
        path = str(tmp_path / "encoder.json")
        encoder.save(path)
        loaded = ToyQueryEncoder.load(path)
        assert loaded.vocab == encoder.vocab
        # parameters are stored as 32-bit floats
        assert np.array_equal(
            loaded.embedding, encoder.embedding.astype(np.float32).astype(np.float64)
        )
        assert np.array_equal(
            loaded.projection, encoder.projection.astype(np.float32).astype(np.float64)
        )


class TestTrain:
    def test_zero_learning_rate_is_noop(self, planted, planted_training):
        untrained, _, train_labels = planted_training
        encoder = untrained.copy()
        before_emb = encoder.embedding.copy()
        before_proj = encoder.projection.copy()
        cfg = TrainConfig(learning_rate=0.0, steps=25, seed=0)
        train(encoder, train_labels, planted.sessions, planted.store, cfg)
        assert np.array_equal(encoder.embedding, before_emb)
        assert np.array_equal(encoder.projection, before_proj)

    def test_single_instance_descends(self, planted, planted_training):
        untrained, _, train_labels = planted_training
        one = [train_labels[0]]
        encoder = untrained.copy()
        cfg = TrainConfig(steps=200, learning_rate=0.1, batch_size=1, seed=0)
        losses = train(encoder, one, planted.sessions, planted.store, cfg)
        assert losses[-1] < losses[0]

    def test_bitwise_deterministic(self, planted, planted_training):
        untrained, _, train_labels = planted_training
        cfg = TrainConfig(steps=40, seed=5)
        runs = []
        for _ in range(2):
            encoder = untrained.copy()
            losses = train(encoder, train_labels, planted.sessions, planted.store, cfg)
            runs.append((encoder.embedding.copy(), encoder.projection.copy(), losses))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]

    def test_recall_improves_on_held_out_turns(self, planted, planted_training):
        untrained, trained, _ = planted_training
        before = dense_recall(untrained, planted, planted.held_out_qids)
        after = dense_recall(trained, planted, planted.held_out_qids)
        assert after > before

    def test_soft_labels_run_and_descend(self, planted, planted_training):
        untrained, _, train_labels = planted_training
        encoder = untrained.copy()
        cfg = TrainConfig(steps=120, seed=0, use_soft_labels=True, use_hard_negatives=True)
        losses = train(encoder, train_labels, planted.sessions, planted.store, cfg, teacher=planted.teacher)
        first = np.mean(losses[:12])
        last = np.mean(losses[-12:])
        assert last < first

    def test_soft_labels_require_teacher(self, planted, planted_training):
        untrained, _, train_labels = planted_training
        cfg = TrainConfig(steps=1, use_soft_labels=True)
        with pytest.raises(ValueError, match="^soft-label training requires a teacher$"):
            train(untrained.copy(), train_labels, planted.sessions, planted.store, cfg)

    def test_store_must_cover_label_ids(self, planted, planted_training):
        untrained, _, train_labels = planted_training
        tiny = PassageEmbeddingStore(
            planted.store.ids[:2], planted.store.vectors[:2]
        )
        labeled = {pid for t in train_labels for pid in [*t.positives, *t.bm25_pool, *dict(t.teacher_pool)]}
        missing = sorted(labeled - set(tiny.ids))[:5]  # the first five, in id order
        with pytest.raises(ValueError, match=re.escape(f"passage store is missing labeled ids: {missing}")):
            train(untrained.copy(), train_labels, planted.sessions, tiny, TrainConfig(steps=1))

    def test_soft_labels_need_teacher_to_score_label_ids(self, planted, planted_training):
        untrained, _, train_labels = planted_training
        lab = dataclasses.replace(train_labels[0], positives=train_labels[0].positives[:1])
        positive = lab.positives[0]
        # scores every pool passage but the positive, the first passage of every batch
        teacher = TableTeacher({(lab.rewrite, pid): 1.0 for pid in lab.bm25_pool if pid != positive})
        cfg = TrainConfig(steps=1, batch_size=1, use_soft_labels=True)
        message = f"no teacher score for query {lab.rewrite!r} and passage {positive!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(untrained.copy(), [lab], planted.sessions, planted.store, cfg, teacher=teacher)

    def test_non_finite_loss_aborts_with_step(self, planted, planted_training):
        untrained, _, train_labels = planted_training
        encoder = untrained.copy()
        encoder.embedding[:] = 1e300
        cfg = TrainConfig(steps=5, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss at step"):
                train(encoder, train_labels, planted.sessions, planted.store, cfg)

    def test_norm_adaptation_contrast(self, planted, planted_training):
        """A context term tied to positives outgrows the shared distractor."""
        _, trained, _ = planted_training
        for si, session in enumerate(planted.sessions):
            last = len(session.turns) - 1
            context, query = session.tokens_for_turn(last)
            report = token_norm_report(trained.encode(context, query))
            by_token = {r.token: r.normalized_norm for r in report}
            assert by_token[planted.topic_tokens[si]] > by_token[planted.distractor_token]


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.tau == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(tau=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="tau must be finite"):
                TrainConfig(tau=value)
            with pytest.raises(ValueError, match="learning_rate must be finite"):
                TrainConfig(learning_rate=value)


# The vocab file holds one token per line, so tokens may hold any character but whitespace.
vocab_tokens = st.text(st.characters(codec="utf-8"), max_size=6).filter(
    lambda s: s != UNK_TOKEN and not WHITESPACE.search(s)
)
f32_values = st.floats(width=32, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(vocab_tokens, max_size=6, unique=True), st.integers(1, 4), st.data())
def test_encoder_round_trip_keeps_vocab_and_parameter_bytes(tokens, dim, data):
    tokens = [UNK_TOKEN, *tokens]
    vocab = dict(zip(tokens, data.draw(st.permutations(range(len(tokens))))))
    # float64 parameters that float32 holds exactly survive the f32 files bit for bit
    embedding = data.draw(hnp.arrays(np.float32, (len(tokens), dim), elements=f32_values))
    projection = data.draw(hnp.arrays(np.float32, (dim, dim), elements=f32_values))
    encoder = ToyQueryEncoder(vocab, embedding.astype(np.float64), projection.astype(np.float64))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "encoder.json")
        encoder.save(manifest)
        loaded = ToyQueryEncoder.load(manifest)
    assert loaded.vocab == vocab
    assert loaded.embedding.dtype == np.float64 and loaded.projection.dtype == np.float64
    assert loaded.embedding.tobytes() == encoder.embedding.tobytes()
    assert loaded.projection.tobytes() == encoder.projection.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("param", ["embedding", "projection"])
def test_encoder_refuses_non_finite_parameters(param, bad):
    encoder = ToyQueryEncoder.create(["a", "b"], dim=3)
    getattr(encoder, param)[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ToyQueryEncoder(encoder.vocab, encoder.embedding, encoder.projection)
