"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute; with plain `pytest -v` each criterion still reports as its own
test. Every tolerance is asserted here at its stated value.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from conftest import dense_recall, session_vocab
from cqe import cli
from cqe.core import (
    RewriteConfig,
    TokenEmbeddingMatrix,
    decompose,
    decontextualize,
    pool,
    score,
    token_norm_report,
)
from cqe.corpus import Corpus, Passage
from cqe.dense import PassageEmbeddingStore, search_dense
from cqe.evaluation import ndcg, paired_t_test, recall_at
from cqe.fusion import FusionConfig, hybrid_combine
from cqe.ranking import RankedList
from cqe.sparse import bm25_score, build_index, search_sparse
from cqe.synth import write_planted_dataset
from cqe.trainer import (
    ToyQueryEncoder,
    TrainConfig,
    TrainingInstance,
    batch_gradients,
    train,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def rel_err(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    return 0.0 if denom == 0.0 else abs(a - b) / denom


def test_criterion_1_decomposition_identity():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        rows = int(rng.integers(1, 129))
        dim = int(rng.integers(1, 769))
        matrix = TokenEmbeddingMatrix(
            [f"t{i}" for i in range(rows)],
            rng.standard_normal((rows, dim)),
            int(rng.integers(0, rows)),
        )
        passage = rng.standard_normal(dim)
        mean_contribution = sum(c.contribution for c in decompose(matrix, passage)) / rows
        worst = max(worst, rel_err(mean_contribution, score(matrix, passage)))
    elapsed = time.monotonic() - start
    report(
        1,
        "decomposition identity",
        worst < 1e-9 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def _random_gradcheck_batch(rng, soft):
    dim = int(rng.integers(3, 7))
    vocab = [f"tok{i}" for i in range(int(rng.integers(6, 14)))]
    encoder = ToyQueryEncoder.create(vocab, dim, seed=int(rng.integers(10**6)))
    encoder.projection += 0.3 * rng.standard_normal((dim, dim))
    n_pool = int(rng.integers(3, 9))
    pool_ids = [f"p{i}" for i in range(n_pool)]
    passage_vecs = rng.standard_normal((n_pool, dim))
    instances = []
    teacher_rows = []
    for q in range(int(rng.integers(1, 5))):
        ctx = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 4))]
        qry = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 4))]
        pos, neg = (int(i) for i in rng.choice(n_pool, size=2, replace=False))
        instances.append(TrainingInstance(f"q{q}", ctx, qry, "rw", pool_ids[pos], pool_ids[neg]))
        if soft:
            teacher_rows.append([float(rng.standard_normal()) for _ in pool_ids])
    tau = float(rng.uniform(0.5, 2.0))
    teacher = np.array(teacher_rows) if soft else None
    return encoder, instances, pool_ids, passage_vecs, teacher, tau


def _fd(loss_fn, param, eps=1e-5):
    grad = np.zeros_like(param)
    flat, out = param.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss_fn()
        flat[i] = orig - eps
        down = loss_fn()
        flat[i] = orig
        out[i] = (up - down) / (2 * eps)
    return grad


def test_criterion_2_gradient_oracle():
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    ok = True
    for batch_index in range(100):
        soft = batch_index % 2 == 1
        encoder, instances, pool_ids, passage_vecs, teacher, tau = _random_gradcheck_batch(rng, soft)

        def loss_fn():
            return batch_gradients(encoder, instances, pool_ids, passage_vecs, tau, teacher)[0]

        _, grad_emb, grad_proj = batch_gradients(
            encoder, instances, pool_ids, passage_vecs, tau, teacher
        )
        for analytic, param in ((grad_emb, encoder.embedding), (grad_proj, encoder.projection)):
            numeric = _fd(loss_fn, param)
            if not np.allclose(analytic, numeric, rtol=1e-4, atol=1e-8):
                ok = False
    elapsed = time.monotonic() - start
    report(2, "gradient oracle", ok and elapsed < 60.0, f"{elapsed:.1f}s for 100 batches")


def test_criterion_3_brute_force_retrieval_equivalence():
    rng = np.random.default_rng(1003)
    start = time.monotonic()
    words = [f"w{i}" for i in range(80)]
    corpus = Corpus(
        [
            Passage(
                f"p{i:03d}",
                " ".join(words[j] for j in rng.integers(0, 80, size=rng.integers(5, 40))),
            )
            for i in range(500)
        ]
    )
    index = build_index(corpus)
    ok = True
    for _ in range(20):
        query = [words[j] for j in rng.integers(0, 80, size=rng.integers(1, 6))]
        got = search_sparse(index, query, 50)
        exhaustive = [(p.id, bm25_score(index, query, p.id)) for p in corpus]
        exhaustive = sorted(
            ((d, s) for d, s in exhaustive if s > 0.0), key=lambda it: (-it[1], it[0])
        )[:50]
        if got.docids() != [d for d, _ in exhaustive]:
            ok = False
        if any(rel_err(e.score, s) > 1e-12 for e, (_, s) in zip(got, exhaustive)):
            ok = False

    store = PassageEmbeddingStore(
        [f"p{i:03d}" for i in range(500)],
        rng.standard_normal((500, 32)).astype(np.float32),
    )
    for _ in range(20):
        query = rng.standard_normal(32)
        got = search_dense(store, query, 50)
        scores = store.vectors.astype(np.float64) @ query
        expected = sorted(zip(store.ids, scores), key=lambda it: (-it[1], it[0]))[:50]
        if got.docids() != [d for d, _ in expected]:
            ok = False
        if any(e.score != s for e, (_, s) in zip(got, expected)):
            ok = False
    elapsed = time.monotonic() - start
    report(3, "brute-force retrieval equivalence", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_4_hybrid_fusion():
    rng = np.random.default_rng(1004)
    ok = True
    for trial in range(200):
        n = int(rng.integers(2, 40))
        overlap = int(rng.integers(0, n))
        shared = [f"s{i}" for i in range(overlap)]
        sparse_scores = [
            (d, float(np.round(rng.uniform(0, 20), 1)) if trial % 3 == 0 else float(rng.uniform(0, 20)))
            for d in shared + [f"a{i}" for i in range(n - overlap)]
        ]
        dense_scores = [
            (d, float(np.round(rng.uniform(-1, 1), 2)) if trial % 3 == 0 else float(rng.uniform(-1, 1)))
            for d in shared + [f"b{i}" for i in range(n - overlap)]
        ]
        sparse = RankedList.from_scores(sparse_scores)
        dense = RankedList.from_scores(dense_scores)

        alpha = float(rng.uniform(0, 0.5))
        combined = hybrid_combine(sparse, dense, FusionConfig(alpha=alpha))
        sp, ds = dict(zip(*sparse.columns())), dict(zip(*dense.columns()))
        min_sp, min_ds = min(sp.values()), min(ds.values())
        expected = {}
        for d in set(sp) | set(ds):
            if d in sp and d in ds:
                expected[d] = alpha * sp[d] + ds[d]
            elif d in sp:
                expected[d] = alpha * sp[d] + min_ds
            else:
                expected[d] = alpha * min_sp + ds[d]
        order = sorted(expected.items(), key=lambda it: (-it[1], it[0]))
        if combined.docids() != [d for d, _ in order]:
            ok = False
        if any(e.score != s for e, (_, s) in zip(combined, order)):
            ok = False

        zero = hybrid_combine(sparse, dense, FusionConfig(alpha=0.0))
        dense_ids = set(dense.docids())
        inside = [e.docid for e in zero if e.docid in dense_ids]
        if inside != dense.docids():
            ok = False
        if any(e.score > min_ds for e in zero if e.docid not in dense_ids):
            ok = False
    report(4, "hybrid fusion oracle and alpha=0 dominance", ok, "200 list pairs")


def test_criterion_5_metric_fidelity():
    rng = np.random.default_rng(1005)
    ok = True
    for _ in range(100):
        n_docs = int(rng.integers(5, 25))
        docs = [f"d{i}" for i in range(n_docs)]
        order = [docs[i] for i in rng.permutation(n_docs)]
        run = {"q": RankedList.from_scores([(d, float(n_docs - i)) for i, d in enumerate(order)])}
        judged = {d: int(rng.integers(0, 5)) for d in rng.choice(docs, size=n_docs // 2, replace=False)}
        judged[docs[0]] = max(judged.get(docs[0], 0), 2)  # at least one positive
        qrels = {"q": judged}
        cutoff = int(rng.integers(1, n_docs + 5))

        got = ndcg(run, qrels, cutoff).per_query["q"]
        dcg = sum(
            judged.get(d, 0) / math.log2(r + 1) for r, d in enumerate(order[:cutoff], start=1)
        )
        ideal = sorted(judged.values(), reverse=True)[:cutoff]
        idcg = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1))
        if abs(got - dcg / idcg) > 1e-9:
            ok = False

        got_recall = recall_at(run, qrels, cutoff=cutoff).per_query["q"]
        positives = {d for d, g in judged.items() if g >= 2}
        want_recall = len(set(order[:cutoff]) & positives) / len(positives)
        if abs(got_recall - want_recall) > 1e-9:
            ok = False

        ideal_order = sorted(judged, key=lambda d: (-judged[d], d)) + [
            d for d in order if d not in judged
        ]
        ideal_run = {
            "q": RankedList.from_scores([(d, float(len(ideal_order) - i)) for i, d in enumerate(ideal_order)])
        }
        if ndcg(ideal_run, qrels, cutoff).per_query["q"] != 1.0:
            ok = False

        n = int(rng.integers(2, 30))
        a = rng.uniform(0, 1, size=n)
        b = np.clip(a + rng.normal(0, 0.08, size=n), 0, 1)
        t, p = paired_t_test(a, b)
        ref = stats.ttest_rel(a, b)
        if abs(t - float(ref.statistic)) > 1e-9 * max(1.0, abs(t)) or abs(p - float(ref.pvalue)) > 1e-6:
            ok = False
    report(5, "metric fidelity", ok, "100 random run/qrels pairs")


@pytest.fixture(scope="module")
def acceptance_training(planted, planted_labels):
    held = set(planted.held_out_qids)
    train_labels = [t for t in planted_labels if t.qid not in held]
    encoder = ToyQueryEncoder.create(session_vocab(planted.sessions), dim=planted.store.dim, seed=0)
    untrained = encoder.copy()
    start = time.monotonic()
    losses = train(encoder, train_labels, planted.sessions, planted.store, TrainConfig(seed=0))
    elapsed = time.monotonic() - start
    return untrained, encoder, losses, elapsed


def test_criterion_6_training_efficacy(planted, acceptance_training):
    untrained, trained, losses, elapsed = acceptance_training
    before = dense_recall(untrained, planted, planted.held_out_qids)
    after = dense_recall(trained, planted, planted.held_out_qids)
    tenth = max(1, len(losses) // 10)
    first = float(np.mean(losses[:tenth]))
    last = float(np.mean(losses[-tenth:]))
    ok = after > before and last < first and elapsed < 120.0
    report(
        6,
        "training efficacy analog",
        ok,
        f"recall@10 {before:.3f}->{after:.3f}, loss {first:.3f}->{last:.3f}, {elapsed:.1f}s",
    )


def test_criterion_7_norm_adaptation(planted, acceptance_training):
    _, trained, _, _ = acceptance_training
    ok = True
    for si, session in enumerate(planted.sessions):
        last_turn = len(session.turns) - 1
        context, query = session.tokens_for_turn(last_turn)
        matrix = trained.encode(context, query)
        norms = {r.token: r.l2_norm for r in token_norm_report(matrix)}
        normalized = {r.token: r.normalized_norm for r in token_norm_report(matrix)}
        topic = planted.topic_tokens[si]
        distractor = planted.distractor_token
        if not normalized[topic] > normalized[distractor]:
            ok = False
        gamma = (norms[topic] + norms[distractor]) / 2.0
        bag = decontextualize(matrix, RewriteConfig(gamma=gamma))
        if topic not in bag or distractor in bag:
            ok = False
    report(7, "norm-adaptation analog", ok, "10 sessions, topic vs distractor")


def test_criterion_8_rewrite_behavior(tmp_path):
    rng = np.random.default_rng(1008)
    ok = True
    for _ in range(1000):
        rows = int(rng.integers(1, 16))
        dim = int(rng.integers(1, 9))
        matrix = TokenEmbeddingMatrix(
            [f"t{i}" for i in range(rows)],
            rng.standard_normal((rows, dim)) * float(rng.uniform(0.5, 4.0)),
            int(rng.integers(0, rows)),
        )
        everything = decontextualize(matrix, RewriteConfig(gamma=0.0))
        if Counter(everything) != Counter(matrix.tokens):
            ok = False
        if everything[: matrix.query_len] != matrix.query_tokens:
            ok = False
        if decontextualize(matrix, RewriteConfig(gamma=math.inf)) != matrix.query_tokens:
            ok = False
        g1, g2 = sorted(rng.uniform(0, 5, size=2))
        low = Counter(decontextualize(matrix, RewriteConfig(gamma=float(g1))))
        high = Counter(decontextualize(matrix, RewriteConfig(gamma=float(g2))))
        if any(high[t] > low[t] for t in high):
            ok = False

    if not (RewriteConfig().gamma == 10.5 and RewriteConfig.HYBRID_GAMMA == 12.0):
        ok = False
    defaults = cli.EngineConfig()
    if not (defaults.rewrite.gamma == 10.5 and defaults.hybrid_rewrite.gamma == 12.0):
        ok = False
    config_path = tmp_path / "config.json"
    config_path.write_text("{}")
    loaded = cli.EngineConfig.from_file(str(config_path))
    if not (loaded.rewrite.gamma == 10.5 and loaded.hybrid_rewrite.gamma == 12.0):
        ok = False
    report(8, "rewrite boundary, monotonicity, config defaults", ok, "1000 matrices")


def _run_pipeline(planted, directory: str) -> dict[str, str]:
    """index -> label -> train (plain, and soft labels with hard negatives) -> search -> eval;
    returns sha256 per artifact."""
    paths = write_planted_dataset(planted, directory)
    paths["index"] = f"{directory}/index.bin"
    paths["labels"] = f"{directory}/labels.jsonl"
    paths["encoder"] = f"{directory}/encoder.json"
    paths["run"] = f"{directory}/run.txt"

    def cli_run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        assert rc == 0, buf.getvalue()
        return buf.getvalue()

    cli_run(["index-sparse", "--corpus", paths["corpus"], "--output", paths["index"]])
    cli_run(
        ["build-weak-labels", "--corpus", paths["corpus"], "--index", paths["index"],
         "--store", paths["store"], "--sessions", paths["sessions"], "--output", paths["labels"]]
    )
    cli_run(
        ["train-toy", "--labels", paths["labels"], "--sessions", paths["sessions"],
         "--corpus", paths["corpus"], "--store", paths["store"], "--seed", "0",
         "--steps", "300", "--output", paths["encoder"]]
    )
    # the mode the benchmark pipeline trains in: the teacher scores every batch
    cli_run(
        ["train-toy", "--labels", paths["labels"], "--sessions", paths["sessions"],
         "--corpus", paths["corpus"], "--store", paths["store"], "--seed", "0",
         "--steps", "100", "--soft-labels", "--hard-negatives", "--output", f"{directory}/soft.json"]
    )
    cli_run(
        ["search-hybrid", "--index", paths["index"], "--store", paths["store"],
         "--encoder", paths["encoder"], "--sessions", paths["sessions"],
         "--depth", "100", "--k", "20", "--output", paths["run"]]
    )
    eval_text = cli_run(
        ["eval", "--run", paths["run"], "--qrels", paths["qrels"], "--metric", "ndcg@3"]
    )

    artifacts = {
        "corpus": paths["corpus"],
        "sessions": paths["sessions"],
        "store.f32": f"{directory}/store.f32",
        "index": paths["index"],
        "labels": paths["labels"],
        "encoder.emb": f"{directory}/encoder.emb.f32",
        "encoder.proj": f"{directory}/encoder.proj.f32",
        "encoder.vocab": f"{directory}/encoder.vocab",
        "soft.emb": f"{directory}/soft.emb.f32",
        "soft.proj": f"{directory}/soft.proj.f32",
        "run": paths["run"],
    }
    digests = {
        name: hashlib.sha256(open(path, "rb").read()).hexdigest()
        for name, path in artifacts.items()
    }
    digests["eval-stdout"] = hashlib.sha256(eval_text.encode()).hexdigest()
    return digests


def test_criterion_9_pipeline_determinism(planted, tmp_path):
    first = _run_pipeline(planted, str(tmp_path / "run1"))
    second = _run_pipeline(planted, str(tmp_path / "run2"))
    ok = first == second
    mismatched = sorted(name for name in first if first[name] != second.get(name))
    report(
        9,
        "pipeline determinism",
        ok,
        "all artifact checksums equal" if ok else f"mismatch: {mismatched}",
    )
