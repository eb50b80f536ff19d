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

    def rows(self, ids: Sequence[str]) -> np.ndarray:
        """The row of each of ``ids``; ValueError naming the first unknown id."""
        try:
            return np.fromiter(map(self.row.__getitem__, ids), np.intp, len(ids))
        except KeyError as exc:
            raise ValueError(f"unknown passage id {exc.args[0]!r}") from None


class RankedEntry(NamedTuple):
    docid: str
    score: float
    rank: int


class RankedList:
    """Ordered retrieval results: non-increasing scores, ranks from 1.

    Ties are broken by ascending docid so runs are reproducible. Lists
    built through :meth:`from_scores` always satisfy the invariants.

    A list is a :class:`PassageTable`, the ``rows`` of its ids there, and
    float64 scores and ranks, all in rank order. Ranks are as given to the
    constructor or to :meth:`from_columns`, since run files may number
    ranks freely, else 1..n. A list built from ids (the constructor,
    :meth:`from_columns`, :meth:`from_scores`) wraps them in a table of
    its own; a list from :func:`top_k` keeps its caller's table. Ids,
    :attr:`entries` and iteration are built from the columns on each read.
    """

    def __init__(self, entries: Iterable[RankedEntry] = ()):
        entries = list(entries)
        self.table, self.rows = PassageTable([e.docid for e in entries]), np.arange(len(entries))
        self._scores = np.array([e.score for e in entries], dtype=np.float64)
        self._ranks: Sequence[int] = [e.rank for e in entries]

    @classmethod
    def _of(cls, table: PassageTable, rows: np.ndarray, scores: np.ndarray, ranks: Sequence[int]) -> RankedList:
        ranked = cls.__new__(cls)
        ranked.table, ranked.rows, ranked._scores, ranked._ranks = table, rows, scores, ranks
        return ranked

    @classmethod
    def from_columns(cls, ids: list[str], scores: np.ndarray, ranks: Sequence[int] | None = None) -> RankedList:
        """``ids`` in rank order, their float64 ``scores`` and ``ranks`` (default 1..n); kept, not copied."""
        n = len(ids)
        return cls._of(PassageTable(ids), np.arange(n), scores, range(1, n + 1) if ranks is None else ranks)

    @classmethod
    def from_scores(cls, scored: Collection[tuple[str, float]], k: int | None = None) -> RankedList:
        """Order (docid, score) pairs by descending score, ascending docid (:func:`top_k` over a table of
        their ids); keep the first ``k``."""
        if k is not None and k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        ids, scores = zip(*scored) if len(scored) else ((), ())
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate docids in scored results")
        n = len(ids)
        return top_k(np.arange(n), np.array(scores, dtype=np.float64), PassageTable(list(ids)), k or n)

    @property
    def entries(self) -> list[RankedEntry]:
        return list(map(RankedEntry, self.docids(), self._scores.tolist(), self._ranks))

    def columns(self) -> tuple[list[str], np.ndarray]:
        """(ids in rank order, float64 scores): the ids built on this call, the list's own score column."""
        return self.docids(), self._scores

    def scores(self) -> np.ndarray:
        """The float64 score column, in rank order; not a copy. No id is read."""
        return self._scores

    def ranks(self) -> Sequence[int]:
        """The rank column, in rank order; not a copy."""
        return self._ranks

    def head(self, k: int) -> RankedList:
        """The first ``k`` results over the same table, each column cut and copied, so a kept head holds no
        longer list's arrays."""
        return self._of(self.table, self.rows[:k].copy(), self._scores[:k].copy(), self._ranks[:k])

    def docids(self) -> list[str]:
        """The ids in rank order, as a new list."""
        ids = self.table.ids
        return [ids[row] for row in self.rows.tolist()]

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


def top_k_floor(scores: np.ndarray, k: int, upper: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """The k-th best of ``scores`` (more than ``k``) and the positions whose ``upper`` (default: the score)
    is at or above it. Ties with it are all kept for the ids to decide; a score below it has k strictly above."""
    cut = len(scores) - k
    floor = np.partition(scores, cut)[cut]
    return floor, np.flatnonzero((scores if upper is None else upper) >= floor)


def top_k(rows: np.ndarray, scores: np.ndarray, table: PassageTable, k: int) -> RankedList:
    """Exact top-k of candidate ``rows`` of ``table`` by descending score, then ascending id.

    ``scores[j]`` is the score of row ``rows[j]``. Only the candidates
    :func:`top_k_floor` keeps are fully sorted. The result keeps ``table``
    and builds no id.
    """
    if len(rows) > k:
        kept = top_k_floor(scores, k)[1]
        rows, scores = rows[kept], scores[kept]
    order = np.lexsort((table.ranks[rows], -scores))[:k]
    return RankedList._of(table, rows[order], scores[order], range(1, len(order) + 1))
