"""Ranked result lists shared by sparse, dense, and fused retrieval."""

from __future__ import annotations

from functools import cached_property
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class PassageTable:
    """Passage ids in row order, with their :func:`id_ranks` and id -> row map, each built on first use. An index
    and a store loaded over the same ids hold one table, so lists drawn from both fuse by row."""

    def __init__(self, ids: list[str]):
        self.ids = ids

    ranks = cached_property(lambda self: id_ranks(self.ids))
    row = cached_property(lambda self: dict(zip(self.ids, range(len(self.ids)))))


class RankedEntry(NamedTuple):
    docid: str
    score: float
    rank: int


class RankedList:
    """Ordered retrieval results: non-increasing scores, ranks from 1.

    Ties are broken by ascending docid so runs are reproducible. Lists
    built through :meth:`from_scores` always satisfy the invariants.

    A list is columns in rank order: float64 scores, ranks (as given to
    the constructor or to :meth:`from_columns`, since run files may number
    ranks freely, else 1..n) and ids. A list from :func:`top_k` holds no
    id column but its ``table`` and the ``rows`` of its ids there: its ids
    are built from them on each read and not kept. :attr:`entries` and
    iteration build :class:`RankedEntry` tuples on each read.
    """

    table: PassageTable | None = None  # set by top_k with ``rows``, in place of an id column
    rows: np.ndarray | None = None

    def __init__(self, entries: Iterable[RankedEntry] = ()):
        entries = list(entries)
        self._ids: list[str] | None = [e.docid for e in entries]
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
        ids, scores = self.columns()
        return list(map(RankedEntry, ids, scores.tolist(), self._ranks))

    def columns(self) -> tuple[list[str], np.ndarray]:
        """(ids in rank order, float64 scores): the list's own columns, not copies; a :func:`top_k` list's ids
        are built on this call."""
        return (self._ids if self.table is None else self.docids()), self._scores

    def scores(self) -> np.ndarray:
        """The float64 score column, in rank order; not a copy. No id is read."""
        return self._scores

    def ranks(self) -> Sequence[int]:
        """The rank column, in rank order; not a copy."""
        return self._ranks

    def head(self, k: int) -> RankedList:
        """The first ``k`` results, each column cut and copied, so a kept head holds no longer list's arrays."""
        ranked = RankedList()
        ranked._scores, ranked._ranks, ranked.table = self._scores[:k].copy(), self._ranks[:k], self.table
        ranked._ids, ranked.rows = (self._ids[:k], None) if self.table is None else (None, self.rows[:k].copy())
        return ranked

    def docids(self) -> list[str]:
        """The ids in rank order, as a new list."""
        return list(self._ids) if self.table is None else [self.table.ids[row] for row in self.rows.tolist()]

    def __len__(self) -> int:
        return len(self._scores)

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


def top_k_floor(scores: np.ndarray, k: int, upper: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """The k-th best of ``scores`` (more than ``k``) and the positions whose ``upper`` (default: the score)
    is at or above it. Ties with it are all kept for the ids to decide; a score below it has k strictly above."""
    cut = len(scores) - k
    floor = np.partition(scores, cut)[cut]
    return floor, np.flatnonzero((scores if upper is None else upper) >= floor)


def top_k(rows: np.ndarray, scores: np.ndarray, table: PassageTable, k: int) -> RankedList:
    """Exact top-k of candidate ``rows`` of ``table`` by descending score, then ascending id.

    ``scores[j]`` is the score of row ``rows[j]``. Only the candidates
    :func:`top_k_floor` keeps are fully sorted. The result, which keeps
    ``table`` and its rows and builds no id, equals
    :meth:`RankedList.from_scores` over all candidates, cut at ``k``.
    """
    if len(rows) > k:
        kept = top_k_floor(scores, k)[1]
        rows, scores = rows[kept], scores[kept]
    order = np.lexsort((table.ranks[rows], -scores))[:k]
    ranked = RankedList()
    ranked._ids, ranked._scores, ranked._ranks = None, scores[order], range(1, len(order) + 1)
    ranked.table, ranked.rows = table, rows[order]
    return ranked
