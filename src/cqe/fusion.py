"""Rank fusion: min-substitution score combination, hybrid search and reciprocal rank fusion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RewriteConfig, TokenEmbeddingMatrix, decontextualize, pool
from .dense import PassageEmbeddingStore, search_dense
from .ranking import PassageTable, RankedList, top_k
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
    score as a substitute. The output covers the full union of both lists
    by descending score, then ascending id; callers cut it to the depth they
    need with :meth:`RankedList.head`. Lists of one :class:`PassageTable`
    meet by row; lists of two by id, through a table of the union's ids.
    """
    config = config or FusionConfig()
    if not sparse or not dense:
        raise ValueError("hybrid_combine requires two non-empty lists")
    table, rows = sparse.table, (sparse.rows, dense.rows)
    if table is not dense.table:
        slot: dict[str, int] = {}  # union id -> its row, sparse ids first
        rows = [np.array([slot.setdefault(d, len(slot)) for d in r.docids()], np.intp) for r in (sparse, dense)]
        table = PassageTable(list(slot))
    union, slots = np.unique(np.concatenate(rows), return_inverse=True)
    sides = zip((sparse, dense), np.split(slots, [len(sparse)]))
    sp, ds = (_spread(ranked.scores(), pos, len(union)) for ranked, pos in sides)
    fused = config.alpha * sp + ds  # the same IEEE multiply and add as on Python floats
    return top_k(union, fused, table, len(union))


def _spread(scores: np.ndarray, pos: np.ndarray, n: int) -> np.ndarray:
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
) -> tuple[list[str], RankedList]:
    """(the rewritten bag of words that sparse search took, the top ``k`` of the fused lists) for one query turn.

    Dense search takes the pooled ``matrix``, sparse search its
    :func:`decontextualize` bag, each to ``depth``; :func:`hybrid_combine`
    fuses them. When one list is empty the other is returned as is.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dense = search_dense(store, pool(matrix), depth)
    sparse = search_sparse(index, bag := decontextualize(matrix, rewrite), depth)
    fused = hybrid_combine(sparse, dense, fusion) if sparse and dense else sparse or dense
    return bag, fused.head(k)


def rrf(
    lists: Sequence[RankedList], config: FusionConfig | None = None, k: int | None = None
) -> RankedList:
    """Reciprocal rank fusion: score(d) = sum over lists of 1/(rrf_k + rank), top ``k`` kept."""
    config = config or FusionConfig()
    if not lists:
        raise ValueError("rrf requires at least one list")
    accum: dict[str, float] = {}
    for ranked in lists:
        for docid, rank in zip(ranked.docids(), ranked.ranks()):
            accum[docid] = accum.get(docid, 0.0) + 1.0 / (config.rrf_k + rank)
    return RankedList.from_scores(accum.items(), k)
