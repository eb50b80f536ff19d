"""TREC-style effectiveness evaluation.

Implements nDCG with linear gains and a log2(rank+1) discount, recall at a
cutoff counting judgments at or above a minimum grade, per-query win/tie
comparison, and a two-sided paired t-test. Run and qrels files use the
standard whitespace-separated TREC formats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import check_id, text_lines
from .ranking import RankedList

Qrels = dict[str, dict[str, int]]

MAX_GRADE = 4
TIE_EPS = 1e-9


@dataclass
class MetricReport:
    """Per-query metric values; the mean is over evaluated queries only."""

    per_query: dict[str, float]

    @property
    def mean(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(self.per_query.values()) / len(self.per_query)


def _evaluable_qids(run: Mapping[str, RankedList], qrels: Mapping[str, Mapping[str, int]]):
    for qid in sorted(run):
        if qid not in qrels:
            warnings.warn(f"query {qid!r} has no judgments; excluded from evaluation")
            continue
        yield qid


def _dcg(grades: Sequence[int]) -> float:
    return sum(g / math.log2(r + 1) for r, g in enumerate(grades, start=1))


def ndcg(
    run: Mapping[str, RankedList], qrels: Mapping[str, Mapping[str, int]], cutoff: int
) -> MetricReport:
    """Normalized discounted cumulative gain at a cutoff.

    Queries whose judgments carry zero total grade are excluded from the
    report, as are run queries absent from the qrels (with a warning).
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    per_query: dict[str, float] = {}
    for qid in _evaluable_qids(run, qrels):
        judged = qrels[qid]
        if sum(judged.values()) == 0:
            continue
        gains = [judged.get(d, 0) for d in run[qid].head(cutoff).docids()]
        ideal = sorted(judged.values(), reverse=True)[:cutoff]
        per_query[qid] = _dcg(gains) / _dcg(ideal)
    return MetricReport(per_query)


def recall_at(
    run: Mapping[str, RankedList],
    qrels: Mapping[str, Mapping[str, int]],
    cutoff: int = 1000,
    min_grade: int = 2,
) -> MetricReport:
    """Fraction of passages graded >= min_grade retrieved within the cutoff."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    per_query: dict[str, float] = {}
    for qid in _evaluable_qids(run, qrels):
        positives = {d for d, g in qrels[qid].items() if g >= min_grade}
        if not positives:
            continue
        retrieved = set(run[qid].head(cutoff).docids())
        per_query[qid] = len(retrieved & positives) / len(positives)
    return MetricReport(per_query)


def win_tie(system: MetricReport, baseline: MetricReport) -> tuple[int, int]:
    """Count queries where the system beats or ties the baseline.

    A win needs a margin above 1e-9; differences within 1e-9 are ties.
    """
    if system.per_query.keys() != baseline.per_query.keys():
        raise ValueError("win_tie requires reports over the same query set")
    wins = ties = 0
    for qid, value in system.per_query.items():
        diff = value - baseline.per_query[qid]
        if diff > TIE_EPS:
            wins += 1
        elif abs(diff) <= TIE_EPS:
            ties += 1
    return wins, ties


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired t-test over per-query values.

    Returns (t, p) with p computed from the Student-t distribution with
    n-1 degrees of freedom via the regularized incomplete beta function.
    All-zero differences give (0.0, 1.0).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired_t_test requires two equal-length 1-D sequences")
    n = a.shape[0]
    if n < 2:
        raise ValueError(f"paired_t_test requires n >= 2, got {n}")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    from scipy.special import betainc  # imported here: scipy takes most of the CLI's start-up
    t = mean / (sd / math.sqrt(n))
    dof = n - 1
    p = float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
    return t, p


# ---------------------------------------------------------------------------
# TREC file formats. Run: "qid Q0 docid rank score tag"; qrels:
# "qid 0 docid grade". UTF-8, LF endings, single spaces.
# ---------------------------------------------------------------------------


def write_run(path: str, runs: Mapping[str, RankedList], tag: str) -> None:
    """Write ``runs`` with run tag ``tag`` on every line; the tag is checked first,
    since an empty one or one with whitespace gives lines that :func:`read_run` refuses."""
    check_id(tag, "run tag")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid in sorted(runs):
            ranked = runs[qid]
            ids, scores = ranked.columns()
            fh.writelines(
                f"{qid} Q0 {docid} {rank} {score!r} {tag}\n"
                for docid, rank, score in zip(ids, ranked.ranks(), scores.tolist())
            )


def read_run(path: str) -> dict[str, RankedList]:
    """Parse a TREC run file into per-query ranked lists that keep the file's ranks.

    Score-order or rank-numbering violations produce warnings; duplicate
    documents within a query are errors.
    """
    grouped: dict[str, tuple[list[str], list[float], list[int]]] = {}
    for lineno, line in text_lines(path):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        qid, _, docid, rank, score, _ = fields
        try:
            value, position = float(score), int(rank)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad rank {rank!r} or score {score!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite score {score!r}")
        columns = grouped.get(qid)
        if columns is None:
            columns = grouped[qid] = ([], [], [])
        columns[0].append(docid)
        columns[1].append(value)
        columns[2].append(position)

    runs: dict[str, RankedList] = {}
    for qid, (docids, values, ranks) in grouped.items():
        if len(set(docids)) != len(docids):
            raise ValueError(f"{path}: duplicate docid for query {qid!r}")
        if ranks != list(range(1, len(ranks) + 1)):
            i = next(i for i, r in enumerate(ranks) if r != i + 1)
            warnings.warn(f"{path}: query {qid!r} rank {ranks[i]} at position {i + 1}")
        scores = np.array(values, dtype=np.float64)
        if (scores[:-1] < scores[1:]).any():
            warnings.warn(f"{path}: query {qid!r} scores are not non-increasing")
        runs[qid] = RankedList.from_columns(docids, scores, ranks)
    return runs


def write_qrels(qrels: Mapping[str, Mapping[str, int]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid in sorted(qrels):
            for docid in sorted(qrels[qid]):
                fh.write(f"{qid} 0 {docid} {qrels[qid][docid]}\n")


def read_qrels(path: str) -> Qrels:
    qrels: Qrels = {}
    for lineno, line in text_lines(path):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        qid, _, docid, grade = fields
        try:
            g = int(grade)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad grade {grade!r}") from None
        if not (0 <= g <= MAX_GRADE):
            raise ValueError(f"{path}:{lineno}: grade {g} outside 0..{MAX_GRADE}")
        if docid in qrels.get(qid, {}):
            raise ValueError(f"{path}:{lineno}: duplicate judgment for {qid!r}/{docid!r}")
        qrels.setdefault(qid, {})[docid] = g
    return qrels
