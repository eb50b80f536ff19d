"""Ranked lists in their forms (entries, columns, rows of a passage table) and the exact orderings behind them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import holds_no_ids
from cqe.ranking import PassageTable, RankedEntry, RankedList, score_order, top_k

SCORED = [("b", 2.0), ("a", 2.0), ("c", 0.5), ("d", -0.0), ("e", -1.25)]


def both_forms(scored):
    """(entry-built, column-built) lists of the same results."""
    entries = RankedList.from_scores(scored)
    columns = RankedList.from_columns(entries.docids(), np.array([e.score for e in entries]))
    return entries, columns


class TestTwoForms:
    def test_equal_and_read_alike(self):
        entries, columns = both_forms(SCORED)
        assert columns == entries and entries == columns
        assert columns.docids() == entries.docids() == ["a", "b", "c", "d", "e"]
        assert dict(zip(*columns.columns())) == dict(zip(*entries.columns()))
        assert list(columns) == list(entries)
        assert columns.entries == entries.entries
        assert [e.rank for e in columns] == [1, 2, 3, 4, 5]
        assert len(columns) == len(entries) == 5
        assert bool(columns) and bool(entries)
        assert repr(columns) == repr(entries)

    def test_reads_alike_after_its_entries_are_built(self):
        entries, columns = both_forms(SCORED)
        ids, scores = columns.columns()
        assert columns.entries == entries.entries  # the entries now replace the columns
        assert columns.docids() == ids and dict(zip(*columns.columns())) == dict(zip(ids, scores.tolist()))
        again_ids, again_scores = columns.columns()
        assert again_ids == ids and again_scores.tobytes() == scores.tobytes()
        assert columns.head(2) == entries.head(2) and len(columns) == 5

    def test_entries_hold_python_numbers(self):
        _, columns = both_forms(SCORED)
        for e in columns:
            assert type(e) is RankedEntry and type(e.score) is float and type(e.rank) is int
        assert dict(zip(*columns.columns()))["d"].hex() == "-0x0.0p+0"

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_head_cuts_both_forms_alike(self, k):
        entries, columns = both_forms(SCORED)
        assert columns.head(k) == entries.head(k) == RankedList(entries.entries[:k])
        assert len(columns.head(k)) == min(k, 5)

    def test_order_matters(self):
        entries, columns = both_forms(SCORED)
        assert columns != RankedList(entries.entries[::-1])
        assert columns != entries.entries

    def test_empty_lists_are_falsy(self):
        for empty in (RankedList(), RankedList([]), RankedList.from_columns([], np.empty(0))):
            assert not empty and len(empty) == 0
            assert empty.docids() == [] and dict(zip(*empty.columns())) == {} and list(empty) == []
        assert RankedList() == RankedList.from_columns([], np.empty(0))

    def test_positional_constructor_keeps_entries_as_given(self):
        # Run files may hold ranks that do not count from 1; the entry form keeps them.
        ranked = RankedList([RankedEntry("x", 3.0, 7), RankedEntry("y", 1.0, 9)])
        assert [e.rank for e in ranked] == [7, 9]
        ids, scores = ranked.columns()
        assert ids == ["x", "y"] and scores.dtype == np.float64 and scores.tolist() == [3.0, 1.0]


# Few distinct scores and short ids over a small alphabet force long tie runs.
short_ids = st.text("abé", min_size=1, max_size=4)
tie_scores = st.sampled_from([0.0, -0.0, 1.0, 1.5, -2.0, 5e-324]) | st.floats(-3, 3, allow_nan=False)
scores_and_ids = st.dictionaries(short_ids, tie_scores, min_size=1, max_size=30)


def reference_from_scores(scored, k=None):
    """from_scores as a Python sort by (-score, id), the rule score_order must reproduce."""
    items = sorted(scored, key=lambda it: (-it[1], it[0]))[:k]
    return [(d, float(s).hex(), r) for r, (d, s) in enumerate(items, start=1)]


@settings(max_examples=200, deadline=None)
@given(scores_and_ids)
def test_score_order_matches_from_scores(scored):
    # against the reference sort: from_scores itself orders with score_order
    ids = list(scored)
    order = score_order(np.array([scored[d] for d in ids]), ids)
    assert [ids[i] for i in order.tolist()] == [d for d, _, _ in reference_from_scores(scored.items())]


@st.composite
def table_candidates(draw):
    """(table, candidate rows in any order, their scores), over a table whose row order is not its id order."""
    ids = draw(st.lists(short_ids, min_size=1, max_size=30, unique=True))
    rows = draw(st.permutations(range(len(ids))))[: draw(st.integers(0, len(ids)))]
    scores = draw(st.lists(tie_scores, min_size=len(rows), max_size=len(rows)))
    return PassageTable(ids), np.array(rows, dtype=np.intp), np.array(scores, dtype=np.float64)


def assert_read_alike(got, want):
    """Every reader of ``got`` gives what ``want``'s gives, scores bit for bit."""
    (ids, scores), (want_ids, want_scores) = got.columns(), want.columns()
    assert ids == want_ids == got.docids() and scores.tobytes() == want_scores.tobytes()
    assert got.scores().tobytes() == want_scores.tobytes() and list(got.ranks()) == list(want.ranks())
    assert [(e.docid, e.score.hex(), e.rank) for e in got.entries] == [
        (e.docid, e.score.hex(), e.rank) for e in want.entries
    ]
    assert list(got) == list(want) and got == want and want == got
    assert len(got) == len(want) and bool(got) == bool(want) and repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(table_candidates())
def test_top_k_lists_and_heads_read_like_from_scores(candidates):
    table, rows, scores = candidates
    scored = list(zip([table.ids[r] for r in rows.tolist()], scores.tolist()))
    full = top_k(rows, scores, table, len(rows) + 1)
    for k in range(len(rows) + 2):
        if k:  # top_k's callers refuse k < 1, as from_scores does
            got = top_k(rows, scores, table, k)
            assert_read_alike(got, RankedList.from_scores(scored, k=k))
            assert got.table is table and holds_no_ids(got)
        head = full.head(k)
        assert_read_alike(head, RankedList.from_scores(scored).head(k))
        assert head.table is table and holds_no_ids(head)
    assert holds_no_ids(full) and full.docids() is not full.docids()  # built on each read, not kept

@settings(max_examples=200, deadline=None)
@given(scores_and_ids)
def test_from_scores_matches_reference_sort_bit_for_bit(scored):
    items = list(scored.items())
    for k in [None, *range(1, len(items) + 2)]:
        got = RankedList.from_scores(items, k=k)
        assert [(e.docid, e.score.hex(), e.rank) for e in got] == reference_from_scores(items, k)
        assert all(type(e.score) is float for e in got)


def test_from_scores_refuses_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate docids"):
        RankedList.from_scores([("a", 1.0), ("b", 0.5), ("a", 2.0)])
