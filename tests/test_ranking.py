"""Ranked lists from each constructor, all rows of a passage table, and the exact ordering behind them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import holds_no_ids
from cqe.evaluation import read_run
from cqe.ranking import PassageTable, RankedEntry, RankedList, top_k

SCORED = [("b", 2.0), ("a", 2.0), ("c", 0.5), ("d", -0.0), ("e", -1.25)]


def built_alike():
    """{constructor: list} of the results SCORED ranks to, built each way a list is made."""
    ranked = RankedList.from_scores(SCORED)
    ids, scores = ranked.docids(), ranked.scores()
    table = PassageTable(sorted(ids, reverse=True))  # row order is not id order
    return {
        "from_scores": ranked,
        "entries": RankedList(ranked.entries),
        "from_columns": RankedList.from_columns(ids, scores.copy()),
        "top_k": top_k(table.rows(ids)[::-1].copy(), scores[::-1].copy(), table, len(ids)),
        "head": RankedList.from_scores([*SCORED, ("f", -9.0)]).head(len(SCORED)),
    }


def test_every_constructor_holds_one_form(tmp_path):
    run = tmp_path / "run.txt"
    run.write_text("q Q0 b 1 2.0 t\nq Q0 a 2 1.0 t\n")
    ids = ["x", "y"]
    lists = {
        "empty": RankedList(), "empty columns": RankedList.from_columns([], np.empty(0)),
        "own ids": RankedList.from_columns(ids, np.array([1.0, 0.0])), "read_run": read_run(str(run))["q"],
        **built_alike(),
    }
    assert lists["own ids"].table.ids is ids  # kept, not copied
    for name, ranked in lists.items():
        assert set(vars(ranked)) == {"table", "rows", "_scores", "_ranks"}, name
        assert isinstance(ranked.table, PassageTable) and ranked.rows.dtype.kind == "i", name
        assert [ranked.table.ids[r] for r in ranked.rows.tolist()] == ranked.docids(), name


class TestConstructors:
    def test_equal_and_read_alike(self):
        lists = built_alike()
        want = lists.pop("from_scores")
        for name, got in lists.items():
            assert got == want and want == got, name
            assert got.docids() == want.docids() == ["a", "b", "c", "d", "e"]
            assert dict(zip(*got.columns())) == dict(zip(*want.columns()))
            assert got.scores().tobytes() == want.scores().tobytes()
            assert list(got) == list(want) and got.entries == want.entries
            assert [e.rank for e in got] == [1, 2, 3, 4, 5]
            assert len(got) == 5 and bool(got) and repr(got) == repr(want)

    def test_ids_are_built_on_each_read(self):
        for ranked in built_alike().values():
            ids, scores = ranked.columns()
            again_ids, again_scores = ranked.columns()
            assert again_ids == ids and again_ids is not ids and again_scores is scores
            assert ranked.docids() == ids and ranked.docids() is not ranked.docids()

    def test_entries_hold_python_numbers(self):
        for ranked in built_alike().values():
            for e in ranked:
                assert type(e) is RankedEntry and type(e.score) is float and type(e.rank) is int
            assert dict(zip(*ranked.columns()))["d"].hex() == "-0x0.0p+0"

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_head_cuts_every_list_alike(self, k):
        for ranked in built_alike().values():
            head = ranked.head(k)
            assert head == RankedList(ranked.entries[:k]) and len(head) == min(k, 5)
            assert head.table is ranked.table and head.rows.base is None  # its own rows, the same table

    def test_order_matters(self):
        ranked = built_alike()["from_columns"]
        assert ranked != RankedList(ranked.entries[::-1])
        assert ranked != ranked.entries

    def test_empty_lists_are_falsy(self):
        empties = (RankedList(), RankedList([]), RankedList.from_columns([], np.empty(0)), RankedList.from_scores([]))
        for empty in empties:
            assert not empty and len(empty) == 0
            assert empty.docids() == [] and dict(zip(*empty.columns())) == {} and list(empty) == []
        assert RankedList() == RankedList.from_columns([], np.empty(0)) == RankedList.from_scores([])

    def test_positional_constructor_keeps_entries_as_given(self):
        # Run files may hold ranks that do not count from 1; the constructor keeps them.
        ranked = RankedList([RankedEntry("x", 3.0, 7), RankedEntry("y", 1.0, 9)])
        assert [e.rank for e in ranked] == [7, 9]
        ids, scores = ranked.columns()
        assert ids == ["x", "y"] and scores.dtype == np.float64 and scores.tolist() == [3.0, 1.0]


# Few distinct scores and short ids over a small alphabet force long tie runs.
short_ids = st.text("abé", min_size=1, max_size=4)
tie_scores = st.sampled_from([0.0, -0.0, 1.0, 1.5, -2.0, 5e-324]) | st.floats(-3, 3, allow_nan=False)
scores_and_ids = st.dictionaries(short_ids, tie_scores, min_size=1, max_size=30)


def reference_from_scores(scored, k=None):
    """from_scores as a Python sort by (-score, id), the rule top_k must reproduce."""
    items = sorted(scored, key=lambda it: (-it[1], it[0]))[:k]
    return [(d, float(s).hex(), r) for r, (d, s) in enumerate(items, start=1)]


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
