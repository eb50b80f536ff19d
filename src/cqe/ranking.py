"""Ranked result lists shared by sparse, dense, and fused retrieval."""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class RankedEntry(NamedTuple):
    docid: str
    score: float
    rank: int


class RankedList:
    """Ordered retrieval results: non-increasing scores, ranks from 1.

    Ties are broken by ascending docid so runs are reproducible. Lists
    built through :meth:`from_scores` always satisfy the invariants.

    A list holds either its entries, as given to the constructor, or two
    columns, ids in rank order and their float64 scores
    (:meth:`from_columns`), whose entries, ranked 1..n, are built on
    first access and then replace the columns, so a list keeps one copy
    of its results. Both forms read and compare alike.
    """

    def __init__(self, entries: Iterable[RankedEntry] = (), tag: str = "run"):
        self._entries: list[RankedEntry] | None = list(entries)
        self._columns: tuple[list[str], np.ndarray] | None = None
        self.tag = tag

    @classmethod
    def from_columns(cls, ids: list[str], scores: np.ndarray, tag: str = "run") -> RankedList:
        """``ids`` in rank order with their float64 ``scores``; entries are built on first access."""
        ranked = cls((), tag)
        ranked._entries, ranked._columns = None, (ids, scores)
        return ranked

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

    @property
    def entries(self) -> list[RankedEntry]:
        if self._entries is None:
            ids, scores = self._columns
            self._entries = list(map(RankedEntry, ids, scores.tolist(), range(1, len(ids) + 1)))
            self._columns = None
        return self._entries

    def columns(self) -> tuple[list[str], np.ndarray]:
        """(ids in rank order, float64 scores); a column-form list returns its own, not copies."""
        if self._columns is None:
            return self.docids(), np.array([e.score for e in self._entries], dtype=np.float64)
        return self._columns

    def head(self, k: int, tag: str | None = None) -> RankedList:
        """The first ``k`` results in the same form, tagged ``tag`` (default: this list's tag)."""
        tag = self.tag if tag is None else tag
        if self._columns is None:
            return RankedList(self._entries[:k], tag)
        ids, scores = self._columns
        return RankedList.from_columns(ids[:k], scores[:k], tag)

    def docids(self) -> list[str]:
        return [e.docid for e in self._entries] if self._columns is None else list(self._columns[0])

    def scores(self) -> dict[str, float]:
        if self._columns is None:
            return {e.docid: e.score for e in self._entries}
        ids, scores = self._columns
        return dict(zip(ids, scores.tolist()))

    def __len__(self) -> int:
        return len(self._entries) if self._columns is None else len(self._columns[0])

    def __iter__(self) -> Iterator[RankedEntry]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return self.tag == other.tag and self.entries == other.entries

    def __repr__(self) -> str:
        return f"RankedList(entries={self.entries!r}, tag={self.tag!r})"


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Position of each id in Python string order, for tie-breaking by ascending id."""
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def score_order(scores: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    """Positions of ``scores`` by descending score, then ascending id.

    One stable sort orders the scores; only the ids inside runs of equal
    scores are ranked (:func:`id_ranks`) and re-sorted, so the order
    equals :meth:`RankedList.from_scores` without sorting every id.
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


def top_k(
    rows: np.ndarray, scores: np.ndarray, ids: Sequence[str], ranks: np.ndarray, k: int, tag: str
) -> RankedList:
    """Exact top-k of candidate ``rows`` by descending score, then ascending id.

    ``scores[j]`` is the score of row ``rows[j]``; ``ids`` and ``ranks``
    (their :func:`id_ranks`) are indexed by row. A partial selection
    finds the k-th best score and every candidate tied with it is kept,
    so only that small set is fully sorted and the ascending-id rule
    still decides which tied rows make the cut. The result, in column
    form, equals :meth:`RankedList.from_scores` over all candidates, cut
    at ``k``.
    """
    if len(rows) > k:
        cut = len(rows) - k
        kept = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        rows, scores = rows[kept], scores[kept]
    order = np.lexsort((ranks[rows], -scores))[:k]
    return RankedList.from_columns([ids[row] for row in rows[order].tolist()], scores[order], tag)
