"""Rank fusion: min-substitution score combination, hybrid search and reciprocal rank fusion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RewriteConfig, TokenEmbeddingMatrix, decontextualize, pool
from .dense import PassageEmbeddingStore, search_dense
from .ranking import RankedList, score_order
from .sparse import InvertedIndex, search_sparse


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = 0.1
    rrf_k: float = 60.0

    def __post_init__(self) -> None:
        if not (self.alpha >= 0.0):
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not (self.rrf_k > 0.0):
            raise ValueError(f"rrf_k must be > 0, got {self.rrf_k}")


def hybrid_combine(
    sparse: RankedList, dense: RankedList, config: FusionConfig | None = None
) -> RankedList:
    """Combine sparse and dense lists as alpha * sparse score + dense score.

    A document missing from one list takes that list's minimum observed
    score as a substitute. The output, built from columns, covers the full
    union of both lists in :meth:`RankedList.from_scores` order; callers
    cut it to the depth they need with :meth:`RankedList.head`.
    """
    config = config or FusionConfig()
    if not sparse or not dense:
        raise ValueError("hybrid_combine requires two non-empty lists")
    slot: dict[str, int] = {}  # union id -> position, sparse ids first
    sides = [
        (scores, [slot.setdefault(d, len(slot)) for d in ids])
        for ids, scores in (sparse.columns(), dense.columns())
    ]
    sp, ds = (_spread(scores, pos, len(slot)) for scores, pos in sides)
    fused = config.alpha * sp + ds  # the same IEEE multiply and add as on Python floats
    union = list(slot)
    order = score_order(fused, union)
    return RankedList.from_columns([union[i] for i in order.tolist()], fused[order])


def _spread(scores: np.ndarray, pos: list[int], n: int) -> np.ndarray:
    """``scores`` at positions ``pos`` of ``n`` slots, the others filled with the list's minimum.

    The filler is the first minimal score in rank order, the one ``min()``
    picks, which decides the sign when 0.0 and -0.0 tie.
    """
    out = np.full(n, scores[np.argmax(scores == scores.min())])
    out[pos] = scores
    return out


def hybrid_search(
    index: InvertedIndex,
    store: PassageEmbeddingStore,
    matrix: TokenEmbeddingMatrix,
    rewrite: RewriteConfig,
    fusion: FusionConfig,
    depth: int,
    k: int,
) -> RankedList:
    """Top ``k`` of the fused sparse and dense lists for one query turn.

    Dense search takes the pooled ``matrix``, sparse search its rewritten
    bag of words, each to ``depth``; :func:`hybrid_combine` fuses them.
    When one list is empty the other is returned as is.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dense = search_dense(store, pool(matrix), depth)
    sparse = search_sparse(index, decontextualize(matrix, rewrite), depth)
    fused = hybrid_combine(sparse, dense, fusion) if sparse and dense else sparse or dense
    return fused.head(k)


def rrf(
    lists: Sequence[RankedList], config: FusionConfig | None = None, k: int | None = None
) -> RankedList:
    """Reciprocal rank fusion: score(d) = sum over lists of 1/(rrf_k + rank), top ``k`` kept."""
    config = config or FusionConfig()
    if not lists:
        raise ValueError("rrf requires at least one list")
    accum: dict[str, float] = {}
    for ranked in lists:
        for entry in ranked:
            accum[entry.docid] = accum.get(entry.docid, 0.0) + 1.0 / (config.rrf_k + entry.rank)
    return RankedList.from_scores(accum.items(), k)
