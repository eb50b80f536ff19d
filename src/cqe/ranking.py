"""Ranked result lists shared by sparse, dense, and fused retrieval."""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class RankedEntry(NamedTuple):
    docid: str
    score: float
    rank: int


class RankedList:
    """Ordered retrieval results: non-increasing scores, ranks from 1.

    Ties are broken by ascending docid so runs are reproducible. Lists
    built through :meth:`from_scores` always satisfy the invariants.

    A list is three columns: ids in rank order, their float64 scores and
    their ranks, as given to the constructor or to :meth:`from_columns`
    (run files may number ranks freely), else 1..n.
    :attr:`entries` and iteration build :class:`RankedEntry` tuples from
    the columns on each read.
    """

    def __init__(self, entries: Iterable[RankedEntry] = ()):
        entries = list(entries)
        self._ids = [e.docid for e in entries]
        self._scores = np.array([e.score for e in entries], dtype=np.float64)
        self._ranks: Sequence[int] = [e.rank for e in entries]

    @classmethod
    def from_columns(cls, ids: list[str], scores: np.ndarray, ranks: Sequence[int] | None = None) -> RankedList:
        """``ids`` in rank order, their float64 ``scores`` and ``ranks`` (default 1..n); kept, not copied."""
        ranked = cls()
        ranked._ids, ranked._scores = ids, scores
        ranked._ranks = range(1, len(ids) + 1) if ranks is None else ranks
        return ranked

    @classmethod
    def from_scores(cls, scored: Collection[tuple[str, float]], k: int | None = None) -> RankedList:
        """Order (docid, score) pairs by descending score, ascending docid; keep the first ``k``."""
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        ids, scores = zip(*scored) if len(scored) else ((), ())
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate docids in scored results")
        scores = np.array(scores, dtype=np.float64)
        order = score_order(scores, ids)[:k]
        return cls.from_columns([ids[i] for i in order.tolist()], scores[order])

    @property
    def entries(self) -> list[RankedEntry]:
        return list(map(RankedEntry, self._ids, self._scores.tolist(), self._ranks))

    def columns(self) -> tuple[list[str], np.ndarray]:
        """(ids in rank order, float64 scores): the list's own columns, not copies."""
        return self._ids, self._scores

    def ranks(self) -> Sequence[int]:
        """The rank column, in rank order; not a copy."""
        return self._ranks

    def head(self, k: int) -> RankedList:
        """The first ``k`` results, each column cut."""
        ranked = RankedList()
        ranked._ids, ranked._scores, ranked._ranks = self._ids[:k], self._scores[:k], self._ranks[:k]
        return ranked

    def docids(self) -> list[str]:
        return list(self._ids)

    def scores(self) -> dict[str, float]:
        return dict(zip(self._ids, self._scores.tolist()))

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[RankedEntry]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"RankedList(entries={self.entries!r})"


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each id in Python string order, for tie-breaking by ascending id."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def score_order(scores: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    """Positions of ``scores`` by descending score, then ascending id.

    One stable sort orders the scores; only the ids inside runs of equal
    scores are ranked (:func:`id_ranks`) and re-sorted, so the order
    equals a full sort by (-score, id) without sorting every id.
    """
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    same = ordered[1:] == ordered[:-1]
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] |= same
    tied[:-1] |= same
    pos = np.flatnonzero(tied)
    if len(pos):
        sub = order[pos]
        order[pos] = sub[np.lexsort((id_ranks([ids[i] for i in sub.tolist()]), -scores[sub]))]
    return order


def top_k(rows: np.ndarray, scores: np.ndarray, ids: Sequence[str], ranks: np.ndarray, k: int) -> RankedList:
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
    return RankedList.from_columns([ids[row] for row in rows[order].tolist()], scores[order])
