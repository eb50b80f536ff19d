"""Token-level query embedding math.

A conversational query turn is represented as a token embedding matrix
whose first ``context_len`` rows come from earlier turns and whose
remaining rows come from the current utterance. This module provides the
operations built on that matrix: average pooling to a single query vector,
dot-product scoring against a passage vector, per-token score
decomposition, L2-norm analysis, and norm-thresholded rewriting of the
conversational query into a stand-alone bag of words.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .corpus import check_id, read_jsonl, str_fields, str_lists, tokenize, unique, write_jsonl

# Marker tokens from embedding dumps; never emitted in rewritten queries.
SPECIAL_TOKENS = frozenset(
    {
        "[cls]", "[sep]", "[pad]", "[mask]", "[unk]",
        "<s>", "</s>", "<pad>", "<unk>", "<sep>", "<cls>", "<mask>",
    }
)


@dataclass(frozen=True)
class RewriteConfig:
    """Settings for norm-thresholded query rewriting.

    ``gamma`` is the L2-norm threshold a context token must reach to be
    kept. 10.5 works well when the rewritten query feeds sparse retrieval
    alone; 12.0 when the rewrite runs inside hybrid retrieval.
    """

    SPARSE_GAMMA = 10.5
    HYBRID_GAMMA = 12.0

    gamma: float = SPARSE_GAMMA

    def __post_init__(self) -> None:
        if math.isnan(self.gamma) or self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass
class TokenEmbeddingMatrix:
    """Per-token vectors for one conversational query turn.

    Rows 0..context_len-1 embed the context tokens, the rest embed the
    current query; at least one query row is required.
    """

    tokens: list[str]
    vectors: np.ndarray
    context_len: int

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if len(self.tokens) != self.vectors.shape[0]:
            raise ValueError(
                f"{len(self.tokens)} tokens but {self.vectors.shape[0]} vector rows"
            )
        if self.context_len < 0:
            raise ValueError("context_len must be >= 0")
        if len(self.tokens) - self.context_len < 1:
            raise ValueError("matrix needs at least one query row")
        if self.vectors.size and not np.isfinite(self.vectors).all():
            raise ValueError("vectors contain non-finite values")

    @property
    def query_len(self) -> int:
        return len(self.tokens) - self.context_len

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def context_tokens(self) -> list[str]:
        return self.tokens[: self.context_len]

    @property
    def query_tokens(self) -> list[str]:
        return self.tokens[self.context_len :]


def pool(matrix: TokenEmbeddingMatrix) -> np.ndarray:
    """Mean over all rows, context and query alike.

    Summation is anchored to the first row so a matrix of identical rows
    pools to that row bitwise, which a plain mean does not guarantee.
    """
    first = matrix.vectors[0]
    return first + (matrix.vectors - first).mean(axis=0)


def _check_dim(matrix: TokenEmbeddingMatrix, passage: np.ndarray) -> np.ndarray:
    passage = np.asarray(passage, dtype=np.float64)
    if passage.ndim != 1 or passage.shape[0] != matrix.dim:
        raise ValueError(
            f"passage dimension {passage.shape} does not match matrix dim {matrix.dim}"
        )
    return passage


def score(matrix: TokenEmbeddingMatrix, passage: np.ndarray) -> float:
    """Inner product of the pooled query vector and a passage vector."""
    passage = _check_dim(matrix, passage)
    return float(np.dot(pool(matrix), passage))


class TokenContribution(NamedTuple):
    token: str
    l2_norm: float
    contribution: float


def decompose(matrix: TokenEmbeddingMatrix, passage: np.ndarray) -> list[TokenContribution]:
    """Per-token share of the query-passage score.

    Each row contributes norm * <unit row, passage> = <row, passage>;
    zero-norm rows contribute 0. The mean of the contributions equals
    score(matrix, passage).
    """
    passage = _check_dim(matrix, passage)
    norms = np.linalg.norm(matrix.vectors, axis=1)
    contributions = matrix.vectors @ passage
    return [
        TokenContribution(tok, float(n), float(c))
        for tok, n, c in zip(matrix.tokens, norms, contributions)
    ]


class TokenNorm(NamedTuple):
    token: str
    l2_norm: float
    normalized_norm: float | None


def token_norm_report(matrix: TokenEmbeddingMatrix) -> list[TokenNorm]:
    """L2 norm per token, normalized by the mean norm of the context rows.

    All rows are reported but only context rows enter the normalization
    denominator; with no context rows (or all-zero context) the
    normalized values are undefined and reported as None.
    """
    norms = np.linalg.norm(matrix.vectors, axis=1)
    denom = float(norms[: matrix.context_len].mean()) if matrix.context_len > 0 else 0.0
    out = []
    for tok, n in zip(matrix.tokens, norms):
        normalized = float(n) / denom if denom > 0.0 else None
        out.append(TokenNorm(tok, float(n), normalized))
    return out


def decontextualize(
    matrix: TokenEmbeddingMatrix, config: RewriteConfig | None = None
) -> list[str]:
    """Rewrite a conversational turn as a stand-alone bag-of-words query.

    Keeps every current-query token, then appends each context token whose
    row norm is at least ``config.gamma``; original order and duplicates
    are preserved. Marker tokens are always dropped.
    """
    config = config or RewriteConfig()
    bag = [tok for tok in matrix.query_tokens if tok.lower() not in SPECIAL_TOKENS]
    norms = np.linalg.norm(matrix.vectors[: matrix.context_len], axis=1)
    for tok, n in zip(matrix.context_tokens, norms):
        if tok.lower() not in SPECIAL_TOKENS and n >= config.gamma:
            bag.append(tok)
    return bag


# ---------------------------------------------------------------------------
# Conversation sessions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Turn:
    raw_utterance: str
    manual_rewrite: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.manual_rewrite, (str, type(None))):
            raise TypeError(f"manual_rewrite must be a string or null, got {self.manual_rewrite!r}")


@dataclass
class Session:
    """Ordered user utterances about one topic, with optional rewrites."""

    session_id: str
    turns: list[Turn] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_id(self.session_id, "session id")
        if not self.turns:
            raise ValueError(f"session {self.session_id!r} has no turns")

    def qid(self, turn_index: int) -> str:
        return f"{self.session_id}_{turn_index + 1}"

    def tokens_for_turn(self, turn_index: int) -> tuple[list[str], list[str]]:
        """(context tokens from all earlier turns, tokens of this turn)."""
        context: list[str] = []
        for turn in self.turns[:turn_index]:
            context.extend(tokenize(turn.raw_utterance))
        return context, tokenize(self.turns[turn_index].raw_utterance)


def load_sessions(path: str) -> list[Session]:
    """Read sessions from JSON-lines: {"session_id", "turns": [...]} per line; ids are unique."""
    seen: set[str] = set()

    def record(obj: dict) -> Session:
        turns = [
            Turn(*str_fields(t, "raw_utterance"), t.get("manual_rewrite"))
            for t in obj.get("turns", [])
        ]
        (session_id,) = str_fields(obj, "session_id")
        return Session(unique(session_id, seen, "session id"), turns)

    return read_jsonl(path, record)


def save_sessions(sessions: list[Session], path: str) -> None:
    """Write sessions as JSON-lines in the layout :func:`load_sessions` reads."""
    write_jsonl(path, map(asdict, sessions))


# ---------------------------------------------------------------------------
# Token-matrix files: one JSON object per query turn
# ---------------------------------------------------------------------------


def load_token_matrices(path: str) -> dict[str, TokenEmbeddingMatrix]:
    """Read {"qid", "tokens", "context_len", "vectors"} JSON-lines; every matrix must pool to finite values."""
    seen: set[str] = set()

    def record(obj: dict) -> tuple[str, TokenEmbeddingMatrix]:
        (qid,) = str_fields(obj, "qid")
        check_id(qid, "qid")
        (tokens,) = str_lists(obj, "tokens")
        context_len = obj["context_len"]
        if type(context_len) is not int:
            raise TypeError(f"'context_len' must be an integer, got {context_len!r}")
        vectors = np.asarray(obj["vectors"], dtype=np.float64)
        unique(qid, seen, "qid")
        matrix = TokenEmbeddingMatrix(tokens, vectors, context_len)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned of
            finite = np.isfinite(pool(matrix)).all()
        if not finite:
            raise ValueError("vectors pool to non-finite values")
        return qid, matrix

    return dict(read_jsonl(path, record))


def save_token_matrices(matrices: Mapping[str, TokenEmbeddingMatrix], path: str) -> None:
    rows = (
        {"qid": qid, "tokens": m.tokens, "context_len": m.context_len, "vectors": m.vectors.tolist()}
        for qid, m in matrices.items()
    )
    write_jsonl(path, rows)
