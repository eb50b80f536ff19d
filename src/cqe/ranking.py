"""Ranked result lists shared by sparse, dense, and fused retrieval."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class RankedEntry(NamedTuple):
    docid: str
    score: float
    rank: int


@dataclass
class RankedList:
    """Ordered retrieval results: non-increasing scores, ranks from 1.

    Ties are broken by ascending docid so runs are reproducible. Lists
    built through :meth:`from_scores` always satisfy the invariants.
    """

    entries: list[RankedEntry] = field(default_factory=list)
    tag: str = "run"

    @classmethod
    def from_scores(
        cls,
        scored: Iterable[tuple[str, float]],
        tag: str = "run",
        k: int | None = None,
    ) -> RankedList:
        """Sort (docid, score) pairs by descending score, ascending docid; keep the first ``k``."""
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        items = sorted(scored, key=lambda it: (-it[1], it[0]))
        if len({d for d, _ in items}) != len(items):
            raise ValueError("duplicate docids in scored results")
        if k is not None:
            items = items[:k]
        entries = [RankedEntry(d, float(s), r) for r, (d, s) in enumerate(items, start=1)]
        return cls(entries, tag)

    def docids(self) -> list[str]:
        return [e.docid for e in self.entries]

    def scores(self) -> dict[str, float]:
        return {e.docid: e.score for e in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RankedEntry]:
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each id in Python string order, for tie-breaking in :func:`top_k`."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def top_k(
    rows: np.ndarray, scores: np.ndarray, ids: Sequence[str], ranks: np.ndarray, k: int, tag: str
) -> RankedList:
    """Exact top-k of candidate ``rows`` by descending score, then ascending id.

    ``scores[j]`` is the score of row ``rows[j]``; ``ids`` and ``ranks``
    (their :func:`id_ranks`) are indexed by row. A partial selection
    finds the k-th best score and every candidate tied with it is kept,
    so only that small set is fully sorted and the ascending-id rule
    still decides which tied rows make the cut. The result equals
    :meth:`RankedList.from_scores` over all candidates, cut at ``k``.
    """
    if len(rows) > k:
        cut = len(rows) - k
        kept = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        rows, scores = rows[kept], scores[kept]
    order = np.lexsort((ranks[rows], -scores))[:k]
    entries = [
        RankedEntry(ids[row], score, rank)
        for rank, row, score in zip(range(1, k + 1), rows[order].tolist(), scores[order].tolist())
    ]
    return RankedList(entries, tag)
