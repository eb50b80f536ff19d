"""Weak-label construction and desk-scale query-encoder training.

Labels are built by retrieving BM25 candidates for each turn's rewritten
query and letting a teacher rescore them; the top teacher picks become
pseudo-positives. Training fine-tunes a small token-table query encoder
against a frozen passage store with an in-batch softmax objective,
optionally sampling negatives from the teacher-reranked pool and
optionally distilling the teacher's score distribution instead of using
one-hot positives. Plain gradient descent keeps every run bitwise
reproducible for a fixed seed.
"""

from __future__ import annotations

import hashlib
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import read_jsonl, str_fields, str_lists, tokenize, unique, write_jsonl
from .core import Session, TokenEmbeddingMatrix
from .dense import PassageEmbeddingStore, read_f32, read_lines, read_manifest, sidecar_base
from .dense import write_lines, write_manifest
from .ranking import top_k
from .sparse import InvertedIndex, search_sparse

UNK_TOKEN = "<unk>"


# ---------------------------------------------------------------------------
# Teachers
# ---------------------------------------------------------------------------


class HashingTextEmbedder:
    """Deterministic text embedder: tokens map to hash-seeded unit vectors.

    The embedding of a text is the mean of its token vectors, so related
    texts share components. Stable across processes and platforms.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._cache: dict[str, np.ndarray] = {}

    def token_vector(self, token: str) -> np.ndarray:
        vec = self._cache.get(token)
        if vec is None:
            seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "little")
            vec = np.random.default_rng(seed).standard_normal(self.dim)
            vec /= np.linalg.norm(vec)
            self._cache[token] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        if not tokens:
            return np.zeros(self.dim)
        return np.mean([self.token_vector(t) for t in tokens], axis=0)


class CosineTeacher:
    """Scores passages by cosine between their stored vectors and the embedded query.

    Each query text is embedded once and each store row's norm is computed
    once, on first use. Every score is one 1-D dot product divided by the
    two norms, so a pair scores the same float whatever else shares the
    call: a matrix product would round differently.
    """

    def __init__(self, store: PassageEmbeddingStore, embedder: HashingTextEmbedder | None = None):
        self._store = store
        self._embedder = embedder or HashingTextEmbedder(store.dim)
        if self._embedder.dim != store.dim:
            raise ValueError("embedder and store dimensions differ")
        self._queries: dict[str, tuple[np.ndarray, np.floating]] = {}
        self._norms = np.full(store.count, np.nan)  # per store row; NaN until first scored

    def scores(self, texts: Sequence[str], ids: Sequence[str]) -> np.ndarray:
        """float64 ``len(texts) x len(ids)`` cosines; 0.0 where either vector is zero."""
        rows = self._store.table.rows(ids)
        vecs = self._store.vectors[rows].astype(np.float64)
        norms = self._norms[rows]
        for j in np.flatnonzero(np.isnan(norms)).tolist():
            v = vecs[j]
            norms[j] = self._norms[rows[j]] = math.sqrt(v.dot(v))  # np.linalg.norm's formula for a 1-D array
        out = np.zeros((len(texts), len(ids)))
        for i, text in enumerate(texts):
            query = self._queries.get(text)
            if query is None:
                q = self._embedder.embed(text)
                query = self._queries[text] = (q, np.linalg.norm(q))
            q, nq = query
            if nq != 0.0:
                dots = np.fromiter(map(q.dot, vecs), np.float64, len(ids))  # one 1-D dot (ddot) per passage
                np.divide(dots, nq * norms, out=out[i], where=norms != 0.0)
        return out


def _finite_score(value, pid: str) -> float:
    """``value`` as a float; ValueError naming passage ``pid`` unless it is a non-bool number a float holds finitely."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"teacher score of {pid!r} must be a finite number, got {value!r}")
    return float(value)


class TableTeacher:
    """File-backed score table keyed by (query text, passage id)."""

    def __init__(self, table: dict[tuple[str, str], float]):
        self._table = dict(table)

    @classmethod
    def from_file(cls, path: str) -> TableTeacher:
        """Read JSON-lines of {"query", "id", "score"} records; keys are unique, scores finite."""
        seen: set[tuple[str, str]] = set()

        def record(obj: dict) -> tuple[tuple[str, str], float]:
            key = unique(str_fields(obj, "query", "id"), seen, "(query, id)")
            return key, _finite_score(obj["score"], key[1])

        return cls(dict(read_jsonl(path, record)))

    def scores(self, texts: Sequence[str], ids: Sequence[str]) -> np.ndarray:
        """float64 ``len(texts) x len(ids)`` table scores; ValueError naming the first missing pair."""
        try:
            rows = [[self._table[(text, pid)] for pid in ids] for text in texts]
        except KeyError as exc:
            text, pid = exc.args[0]
            raise ValueError(f"no teacher score for query {text!r} and passage {pid!r}") from None
        return np.array(rows, dtype=np.float64).reshape(len(texts), len(ids))


# ---------------------------------------------------------------------------
# Weak labels
# ---------------------------------------------------------------------------


@dataclass
class TurnLabels:
    """Pseudo-relevance labels for one query turn."""

    qid: str
    rewrite: str
    positives: list[str]
    bm25_pool: list[str]
    teacher_pool: list[tuple[str, float]]


def build_weak_labels(
    sessions: Sequence[Session],
    index: InvertedIndex,
    teacher,
    candidate_depth: int = 1000,
    pool_size: int = 200,
) -> list[TurnLabels]:
    """Label every rewritten turn with teacher-picked positives.

    Per turn: retrieve up to candidate_depth BM25 candidates for the
    rewrite, rescore them with one ``teacher.scores([rewrite], ids)``
    call, keep the teacher's top 3 as positives, and record the top
    pool_size ids of both orderings. Turns with fewer than 3 candidates
    are skipped with a warning.
    """
    if min(candidate_depth, pool_size) < 1:
        raise ValueError(f"candidate_depth {candidate_depth} and pool_size {pool_size} must be >= 1")
    turns = []
    for session in sessions:
        for i, turn in enumerate(session.turns):
            qid = session.qid(i)
            if turn.manual_rewrite is None:
                raise ValueError(f"turn {qid!r} has no manual rewrite")
            candidates = search_sparse(index, tokenize(turn.manual_rewrite), candidate_depth)
            if len(candidates) < 3:
                warnings.warn(
                    f"skipping turn {qid!r}: only {len(candidates)} retrievable candidates"
                )
                continue
            ids = candidates.docids()
            scores = np.asarray(teacher.scores([turn.manual_rewrite], ids), dtype=np.float64)
            rescored = top_k(candidates.rows, scores[0], candidates.table, len(candidates))
            pool_ids, pool_scores = rescored.head(pool_size).columns()
            turns.append(
                TurnLabels(
                    qid=qid,
                    rewrite=turn.manual_rewrite,
                    positives=rescored.head(3).docids(),
                    bm25_pool=ids[:pool_size],
                    teacher_pool=list(zip(pool_ids, pool_scores.tolist())),
                )
            )
    return turns


def save_weak_labels(labels: Sequence[TurnLabels], path: str) -> None:
    rows = (
        {"qid": t.qid, "rewrite": t.rewrite, "positives": t.positives, "bm25_pool": t.bm25_pool,
         "teacher_pool": [{"id": d, "score": s} for d, s in t.teacher_pool]}
        for t in labels
    )
    write_jsonl(path, rows)


def load_weak_labels(path: str) -> list[TurnLabels]:
    """Read :func:`save_weak_labels` JSON-lines; qids are unique, id lists are lists of strings,
    ``positives`` is not empty and each ``teacher_pool`` entry is {"id": string, "score": finite number}."""
    seen: set[str] = set()

    def record(obj: dict) -> TurnLabels:
        qid, rewrite = str_fields(obj, "qid", "rewrite")
        positives, bm25_pool = str_lists(obj, "positives", "bm25_pool")
        if not positives:
            raise ValueError(f"turn {qid!r} has no positives")
        teacher_pool = []
        for entry in obj["teacher_pool"]:
            if not isinstance(entry, dict):
                raise TypeError("'teacher_pool' entries must be objects")
            if not isinstance(pid := entry["id"], str):  # str_fields' wording; calling it per entry costs 2/3 more
                raise TypeError(f"'id' must be a string, got {type(pid).__name__}")
            teacher_pool.append((pid, _finite_score(entry["score"], pid)))
        return TurnLabels(unique(qid, seen, "qid"), rewrite, positives, bm25_pool, teacher_pool)

    return read_jsonl(path, record)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def contrastive_loss(
    query_vecs: np.ndarray,
    passage_vecs: np.ndarray,
    positive_indices: Sequence[int],
    tau: float,
) -> tuple[float, np.ndarray]:
    """In-batch softmax loss over temperature-scaled inner products.

    Each query is scored against every batch passage; the loss is the mean
    negative log-probability of its single positive. Returns the loss and
    its gradient with respect to each query vector.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    query_vecs = np.asarray(query_vecs, dtype=np.float64)
    passage_vecs = np.asarray(passage_vecs, dtype=np.float64)
    n_queries = query_vecs.shape[0]
    n_passages = passage_vecs.shape[0]
    pos = list(positive_indices)
    if len(pos) != n_queries or any(p is None or not (0 <= p < n_passages) for p in pos):
        raise ValueError("each query needs exactly one positive index into the batch pool")

    logp = _log_softmax(query_vecs @ passage_vecs.T / tau)
    rows = np.arange(n_queries)
    loss = float(-logp[rows, pos].mean())
    probs = np.exp(logp)
    grad = (probs @ passage_vecs - passage_vecs[pos]) / (n_queries * tau)
    return loss, grad


def distill_loss(
    student_scores: np.ndarray, teacher_scores: np.ndarray, tau: float
) -> tuple[np.float64 | np.ndarray, np.ndarray]:
    """KL divergence from the teacher's to the student's softmaxed scores, along the last axis.

    Both score vectors (or matrices, row by row) are softmax-normalized at
    temperature tau; the loss is KL(teacher || student). Returns the loss of
    each row (a float64 scalar for vectors) and its gradient with respect to
    the student scores. A row of a matrix gets the same bits as that row
    alone: every reduction runs along the contiguous last axis.
    """
    student = np.asarray(student_scores, dtype=np.float64)
    teacher = np.asarray(teacher_scores, dtype=np.float64)
    if student.shape != teacher.shape or student.ndim not in (1, 2):
        raise ValueError("student and teacher score lists must have equal length")
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if student.shape[-1] < 2:
        raise ValueError("distillation needs at least 2 scores")
    log_s = _log_softmax(student / tau)
    log_t = _log_softmax(teacher / tau)
    p_t = np.exp(log_t)
    return np.sum(p_t * (log_t - log_s), axis=-1), (np.exp(log_s) - p_t) / tau


# ---------------------------------------------------------------------------
# Toy query encoder
# ---------------------------------------------------------------------------


class ToyQueryEncoder:
    """Trainable token-table encoder: row lookup followed by a shared projection.

    encode() emits a token embedding matrix whose rows are
    embedding[token] @ projection; unknown tokens share a dedicated row.
    Small enough to train by hand yet exercises the full pooled-scoring
    path, including per-token norm adaptation.
    """

    def __init__(self, vocab: dict[str, int], embedding: np.ndarray, projection: np.ndarray):
        embedding = np.asarray(embedding, dtype=np.float64)
        projection = np.asarray(projection, dtype=np.float64)
        if embedding.ndim != 2:
            raise ValueError("embedding table must be 2-D")
        dim = embedding.shape[1]
        if projection.shape != (dim, dim):
            raise ValueError(f"projection must be {dim}x{dim}")
        if UNK_TOKEN not in vocab:
            raise ValueError(f"vocabulary must include {UNK_TOKEN!r}")
        if sorted(vocab.values()) != list(range(embedding.shape[0])):
            raise ValueError("vocabulary indices must cover the embedding rows exactly")
        if not (np.isfinite(embedding).all() and np.isfinite(projection).all()):
            raise ValueError("parameters contain non-finite values")
        self.vocab = dict(vocab)
        self.embedding = embedding
        self.projection = projection
        self._unk = vocab[UNK_TOKEN]

    @classmethod
    def create(cls, tokens, dim: int, seed: int = 0) -> ToyQueryEncoder:
        """Random-initialized encoder over the given token inventory."""
        vocab = {UNK_TOKEN: 0}
        for t in sorted(set(tokens)):
            if t not in vocab:
                vocab[t] = len(vocab)
        rng = np.random.default_rng(seed)
        embedding = rng.standard_normal((len(vocab), dim)) / math.sqrt(dim)
        return cls(vocab, embedding, np.eye(dim))

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    def token_indices(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.vocab.get(t, self._unk) for t in tokens], dtype=np.int64)

    def encode(self, context_tokens: Sequence[str], query_tokens: Sequence[str]) -> TokenEmbeddingMatrix:
        tokens = list(context_tokens) + list(query_tokens)
        if not tokens:
            raise ValueError("cannot encode an empty turn")
        rows = self.embedding[self.token_indices(tokens)] @ self.projection
        return TokenEmbeddingMatrix(tokens, rows, len(context_tokens))

    def copy(self) -> ToyQueryEncoder:
        return ToyQueryEncoder(self.vocab, self.embedding.copy(), self.projection.copy())

    def save(self, manifest_path: str) -> None:
        """Manifest JSON plus f32 parameter blobs and a vocab line file; ValueError, before any write,
        unless every parameter is finite as float32."""
        with np.errstate(over="ignore"):
            embedding, projection = self.embedding.astype("<f4"), self.projection.astype("<f4")
        if not (np.isfinite(embedding).all() and np.isfinite(projection).all()):
            raise ValueError(f"{manifest_path}: parameters overflow float32")
        base = sidecar_base(manifest_path)
        write_manifest(manifest_path, dim=self.dim, vocab_size=len(self.vocab))
        embedding.tofile(base + ".emb.f32")
        projection.tofile(base + ".proj.f32")
        write_lines(base + ".vocab", sorted(self.vocab, key=self.vocab.get))

    @classmethod
    def load(cls, manifest_path: str) -> ToyQueryEncoder:
        dim, vocab_size = read_manifest(manifest_path, "dim", "vocab_size")
        base = sidecar_base(manifest_path)
        nonfinite = f"{manifest_path}: parameters contain non-finite values"
        embedding = read_f32(base + ".emb.f32", vocab_size, dim, nonfinite)[0]
        projection = read_f32(base + ".proj.f32", dim, dim, nonfinite)[0]
        tokens = read_lines(base + ".vocab", vocab_size, "tokens")
        vocab = {t: i for i, t in enumerate(tokens)}
        if len(vocab) != vocab_size:
            raise ValueError(f"{base}.vocab: duplicate tokens")
        try:
            return cls(vocab, embedding, projection)
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: {exc}") from None


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale training settings; defaults suit corpora of a few hundred passages."""

    tau: float = 1.0
    learning_rate: float = 0.5
    batch_size: int = 10
    steps: int = 1200
    seed: int = 0
    use_hard_negatives: bool = False
    use_soft_labels: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.tau < math.inf):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not (0.0 <= self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")


@dataclass
class TrainingInstance:
    """One (conversational query, positive, negative) training triplet."""

    qid: str
    context_tokens: list[str]
    query_tokens: list[str]
    rewrite: str
    positive_id: str
    negative_id: str

    def __post_init__(self) -> None:
        if self.positive_id == self.negative_id:
            raise ValueError("positive and negative must differ")


def batch_gradients(
    encoder: ToyQueryEncoder,
    instances: Sequence[TrainingInstance],
    pool_ids: Sequence[str],
    passage_vecs: np.ndarray,
    tau: float,
    teacher_scores: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and parameter gradients for one batch against fixed passages.

    Query vectors are the pooled encoder rows for each instance's
    context+query tokens; gradients flow back through the pooling mean and
    the shared projection into the embedding table. With
    ``teacher_scores``, a ``len(instances) x len(pool_ids)`` array whose
    row i scores instance i against every pool passage, the objective is
    the mean distillation loss over per-query score vectors; otherwise it
    is the in-batch softmax loss.
    """
    n_queries = len(instances)
    if teacher_scores is not None:
        teacher_scores = np.asarray(teacher_scores, dtype=np.float64)
        if teacher_scores.shape != (n_queries, len(pool_ids)):
            raise ValueError(f"teacher scores are {teacher_scores.shape}, need {(n_queries, len(pool_ids))}")
    passage_vecs = np.asarray(passage_vecs, dtype=np.float64)
    embedding, projection = encoder.embedding, encoder.projection

    sizes = [len(inst.context_tokens) + len(inst.query_tokens) for inst in instances]
    token_idx = encoder.token_indices(
        [t for inst in instances for tokens in (inst.context_tokens, inst.query_tokens) for t in tokens]
    )
    token_rows = embedding[token_idx]
    # Per instance: its own GEMM, pooled by the same anchored mean as core.pool (the
    # gradient is 1/n per row either way), and the row sum the projection gradient needs.
    # One GEMM over all instances, or sums cut from one reduction, round differently.
    query_vecs = np.empty((n_queries, encoder.dim))
    row_sums = np.empty((n_queries, encoder.dim))
    stop = 0
    for i, size in enumerate(sizes):
        if size == 0:
            raise ValueError(f"turn {instances[i].qid!r} has no tokens to encode")
        start, stop = stop, stop + size
        emb = token_rows[start:stop]
        rows = emb @ projection
        query_vecs[i] = rows[0] + (rows - rows[0]).mean(axis=0)
        row_sums[i] = emb.sum(axis=0)

    if teacher_scores is not None:
        passage_t = passage_vecs.T
        student = np.array([q @ passage_t for q in query_vecs])
        item_losses, grad_s = distill_loss(student, teacher_scores, tau)
        total = 0.0
        for item_loss in item_losses.tolist():
            total += item_loss
        loss = total / n_queries
        grad_q = np.array([g @ passage_vecs for g in grad_s]) / n_queries
    else:
        index_of = {pid: i for i, pid in enumerate(pool_ids)}
        positives = [index_of[inst.positive_id] for inst in instances]
        loss, grad_q = contrastive_loss(query_vecs, passage_vecs, positives, tau)

    per_row = grad_q / np.array(sizes)[:, None]
    # The outer products are added one by one in instance order; a reduction over
    # all of them may sum pairwise.
    grad_projection = np.zeros_like(projection)
    outer = np.empty_like(projection)
    for row_sum, row_grad in zip(row_sums[:, :, None], per_row):
        grad_projection += np.multiply(row_sum, row_grad, out=outer)
    # Each token's row gradient, added into its embedding row in token order from 0.0:
    # the additions np.add.at makes, done by one bincount over flat (row, column) cells.
    grad_rows = np.repeat([g @ projection.T for g in per_row], sizes, axis=0)
    cells = (token_idx[:, None] * encoder.dim + np.arange(encoder.dim)).ravel()
    grad_embedding = np.bincount(cells, grad_rows.ravel(), embedding.size).reshape(embedding.shape)
    return loss, grad_embedding, grad_projection


def train(
    encoder: ToyQueryEncoder,
    labels: Sequence[TurnLabels],
    sessions: Sequence[Session],
    store: PassageEmbeddingStore,
    config: TrainConfig,
    teacher=None,
) -> list[float]:
    """Gradient-descent fine-tuning of ``encoder`` in place; passages stay frozen. Returns the loss of each step.

    The i-th instance takes label ``i % len(labels)``, so each pass over
    the labels draws every turn once: a uniform positive, then a uniform
    negative from the BM25 pool, or with hard negatives the teacher pool,
    less the positives; both with replacement. Every labeled id must be in
    the store. Soft-label runs need a teacher: one ``teacher.scores`` call
    per batch scores every in-batch (query, passage) pair. Fully
    deterministic for a fixed seed.
    """
    if config.use_soft_labels and teacher is None:
        raise ValueError("soft-label training requires a teacher")
    if not labels:
        raise ValueError("no labeled turns to train on")
    labeled = {pid for t in labels for pid in t.positives + t.bm25_pool}
    labeled.update(pid for t in labels for pid, _ in t.teacher_pool)
    if missing := sorted(labeled - store.table.row.keys()):
        raise ValueError(f"passage store is missing labeled ids: {missing[:5]}")

    turns = {s.qid(i): (s, i) for s in sessions for i in range(len(s.turns))}
    records = []  # per label: the label, its turn's (context, query) tokens and its eligible negatives
    for lab in labels:
        if lab.qid not in turns:
            raise ValueError(f"labels refer to unknown turn {lab.qid!r}")
        session, turn_index = turns[lab.qid]
        pool = [d for d, _ in lab.teacher_pool] if config.use_hard_negatives else lab.bm25_pool
        positives = set(lab.positives)
        records.append((lab, session.tokens_for_turn(turn_index), [d for d in pool if d not in positives]))
    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    for step in range(config.steps):
        batch = []
        for i in range(step * config.batch_size, (step + 1) * config.batch_size):
            lab, (context_tokens, query_tokens), eligible = records[i % len(records)]
            positive = lab.positives[int(rng.integers(len(lab.positives)))]
            if not eligible:
                raise ValueError(f"turn {lab.qid!r} has no eligible negatives")
            # a full permutation, not integers(): it keeps the random stream, so encoders keep their bytes
            negative = eligible[int(rng.permutation(len(eligible))[-1])]
            batch.append(TrainingInstance(lab.qid, context_tokens, query_tokens, lab.rewrite, positive, negative))
        # positives and negatives in first-seen order
        pool_ids = list(dict.fromkeys(pid for inst in batch for pid in (inst.positive_id, inst.negative_id)))
        passage_vecs = store.vectors[store.table.rows(pool_ids)].astype(np.float64)
        teacher_scores = None
        if config.use_soft_labels:
            teacher_scores = teacher.scores([inst.rewrite for inst in batch], pool_ids)
        with np.errstate(over="ignore", invalid="ignore"):  # overflows end as a non-finite loss or in save
            loss, grad_emb, grad_proj = batch_gradients(
                encoder, batch, pool_ids, passage_vecs, config.tau, teacher_scores
            )
            if not math.isfinite(loss):
                raise RuntimeError(f"non-finite loss at step {step}")
            losses.append(loss)
            encoder.embedding -= config.learning_rate * grad_emb
            encoder.projection -= config.learning_rate * grad_proj
    return losses
