"""Brute-force oracles that the benchmark checks cqe's rankings against.

Each oracle scores every candidate the slow, obvious way and returns all
scores, so a checked list can be judged even where it is cut at depth k:

- dense: every store row against the query in one float64 product;
- sparse: ``cqe.sparse.bm25_score`` for every document that holds a bag term;
- hybrid: the min-substitution fusion ``alpha * sparse + dense`` recomputed
  from the two oracle lists.

:func:`compare` accepts a ranking when it holds the oracle's top-k scores
in order, every shown score matches, and documents with exactly equal
scores are in ascending id order.
"""

from __future__ import annotations

import numpy as np

Scored = dict[str, float]


def ordered(scores: Scored, k: int | None = None) -> list[tuple[str, float]]:
    """Descending score, then ascending id; the tie rule cqe promises."""
    items = sorted(scores.items(), key=lambda it: (-it[1], it[0]))
    return items if k is None else items[:k]


def dense_scores(vectors64: np.ndarray, ids: list[str], query: np.ndarray) -> Scored:
    scores = vectors64 @ np.asarray(query, dtype=np.float64)
    return dict(zip(ids, scores.tolist()))


def sparse_scores(index, bag: list[str], candidates) -> Scored:
    """BM25 of every candidate that scores above zero."""
    from cqe.sparse import bm25_score

    out = {}
    for pid in candidates:
        s = bm25_score(index, bag, pid)
        if s > 0.0:
            out[pid] = s
    return out


def hybrid_scores(sparse: list[tuple[str, float]], dense: list[tuple[str, float]], alpha: float) -> Scored:
    """Fuse two depth-cut oracle lists; a side's missing documents take its minimum."""
    if not sparse:
        return dict(dense)
    if not dense:
        return dict(sparse)
    sp, ds = dict(sparse), dict(dense)
    min_sp, min_ds = min(sp.values()), min(ds.values())
    return {d: alpha * sp.get(d, min_sp) + ds.get(d, min_ds) for d in sp.keys() | ds.keys()}


def compare(got: list[tuple[str, float | None]], want: Scored, k: int, tol: float) -> str | None:
    """None when ``got`` is a correct top-k of ``want``; otherwise what is wrong.

    ``got`` holds (id, score) pairs in the program's order; a score of
    None is not checked (pool files carry ids only). ``tol`` is the
    allowed score difference, relative to max(1, |score|).
    """
    top = ordered(want, k)
    if len(got) != len(top):
        return f"{len(got)} results, oracle has {len(top)}"
    ids = [d for d, _ in got]
    if len(set(ids)) != len(ids):
        return "duplicate ids"

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= tol * max(1.0, abs(b))

    for rank, ((doc, shown), (_, best)) in enumerate(zip(got, top), start=1):
        if doc not in want:
            return f"rank {rank}: {doc} is not a candidate"
        if shown is not None and not close(shown, want[doc]):
            return f"rank {rank}: {doc} scored {shown!r}, oracle {want[doc]!r}"
        if not close(want[doc], best):
            return f"rank {rank}: {doc} has oracle score {want[doc]!r}, rank holds {best!r}"
        if rank > 1:
            prev = ids[rank - 2]
            if want[prev] == want[doc] and prev > doc:
                return f"rank {rank}: tied {prev} before {doc}"
    return None
