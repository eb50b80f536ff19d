"""Metric fidelity: nDCG, recall, win/tie, paired t-test, and TREC file IO."""

import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cqe.corpus import WHITESPACE
from cqe.evaluation import (
    MAX_GRADE,
    MetricReport,
    ndcg,
    paired_t_test,
    read_qrels,
    read_run,
    recall_at,
    win_tie,
    write_qrels,
    write_run,
)
from cqe.ranking import RankedList


def make_run(docids_by_qid, start_score=100.0):
    return {
        qid: RankedList.from_scores([(d, start_score - i) for i, d in enumerate(docids)])
        for qid, docids in docids_by_qid.items()
    }


def random_run_and_qrels(rng, n_docs=15, n_judged=10):
    docs = [f"d{i}" for i in range(n_docs)]
    order = [docs[i] for i in rng.permutation(n_docs)]
    run = make_run({"q1": order})
    judged = [docs[i] for i in rng.permutation(n_docs)[:n_judged]]
    qrels = {"q1": {d: int(rng.integers(0, 5)) for d in judged}}
    return run, qrels


def oracle_ndcg(run_docids, grades, cutoff):
    dcg = sum(
        grades.get(d, 0) / math.log2(r + 1)
        for r, d in enumerate(run_docids[:cutoff], start=1)
    )
    ideal = sorted(grades.values(), reverse=True)[:cutoff]
    idcg = sum(g / math.log2(r + 1) for r, g in enumerate(ideal, start=1))
    return dcg / idcg


class TestNDCG:
    def test_ideal_run_scores_exactly_one(self):
        qrels = {"q1": {"a": 4, "b": 3, "c": 1, "d": 0}}
        ideal_order = sorted(qrels["q1"], key=lambda d: -qrels["q1"][d])
        report = ndcg(make_run({"q1": ideal_order}), qrels, cutoff=10)
        assert report.per_query["q1"] == 1.0
        assert report.mean == 1.0

    def test_no_relevant_in_top_scores_zero(self):
        qrels = {"q1": {"rel": 3}}
        report = ndcg(make_run({"q1": ["x", "y", "z"]}), qrels, cutoff=3)
        assert report.per_query["q1"] == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            run, qrels = random_run_and_qrels(rng)
            if sum(qrels["q1"].values()) == 0:
                continue
            cutoff = int(rng.integers(1, 20))
            report = ndcg(run, qrels, cutoff)
            expected = oracle_ndcg(run["q1"].docids(), qrels["q1"], cutoff)
            assert abs(report.per_query["q1"] - expected) < 1e-9

    def test_zero_grade_queries_excluded(self):
        qrels = {"q1": {"a": 0, "b": 0}, "q2": {"a": 2}}
        report = ndcg(make_run({"q1": ["a"], "q2": ["a"]}), qrels, cutoff=5)
        assert list(report.per_query) == ["q2"]

    def test_unjudged_query_warns_and_is_excluded(self):
        qrels = {"q1": {"a": 2}}
        run = make_run({"q1": ["a"], "q9": ["a"]})
        with pytest.warns(UserWarning, match="q9"):
            report = ndcg(run, qrels, cutoff=5)
        assert list(report.per_query) == ["q1"]

    def test_equal_grades_permutable_at_same_ranks(self):
        qrels = {"q1": {"a": 2, "b": 2, "c": 1}}
        first = ndcg(make_run({"q1": ["a", "b", "c"]}), qrels, cutoff=3)
        second = ndcg(make_run({"q1": ["b", "a", "c"]}), qrels, cutoff=3)
        assert first.per_query["q1"] == second.per_query["q1"]

    def test_appending_below_cutoff_is_noop(self):
        qrels = {"q1": {"a": 3, "b": 1}}
        short = ndcg(make_run({"q1": ["a", "x"]}), qrels, cutoff=2)
        long = ndcg(make_run({"q1": ["a", "x", "b", "y"]}), qrels, cutoff=2)
        assert short.per_query["q1"] == long.per_query["q1"]

    def test_bounds(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            run, qrels = random_run_and_qrels(rng)
            if sum(qrels["q1"].values()) == 0:
                continue
            report = ndcg(run, qrels, cutoff=10)
            assert 0.0 <= report.per_query["q1"] <= 1.0

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            ndcg({}, {}, cutoff=0)


class TestRecall:
    def test_full_coverage(self):
        qrels = {"q1": {"a": 2, "b": 3, "c": 1}}
        report = recall_at(make_run({"q1": ["b", "a"]}), qrels, cutoff=10)
        assert report.per_query["q1"] == 1.0

    def test_empty_run_scores_zero(self):
        qrels = {"q1": {"a": 2}}
        report = recall_at({"q1": RankedList([])}, qrels, cutoff=10)
        assert report.per_query["q1"] == 0.0

    def test_matches_set_intersection_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            run, qrels = random_run_and_qrels(rng)
            positives = {d for d, g in qrels["q1"].items() if g >= 2}
            if not positives:
                continue
            cutoff = int(rng.integers(1, 20))
            report = recall_at(run, qrels, cutoff=cutoff)
            expected = len(set(run["q1"].docids()[:cutoff]) & positives) / len(positives)
            assert report.per_query["q1"] == expected

    def test_min_grade_two_excludes_grade_one(self):
        qrels = {"q1": {"a": 1, "b": 2}}
        report = recall_at(make_run({"q1": ["a"]}), qrels, cutoff=5)
        assert report.per_query["q1"] == 0.0

    def test_queries_without_positives_excluded(self):
        qrels = {"q1": {"a": 1}, "q2": {"b": 2}}
        report = recall_at(make_run({"q1": ["a"], "q2": ["b"]}), qrels, cutoff=5)
        assert list(report.per_query) == ["q2"]


class TestWinTie:
    def report(self, values):
        return MetricReport(values)

    def test_identical_reports_all_tie(self):
        a = self.report({f"q{i}": 0.5 for i in range(6)})
        assert win_tie(a, a) == (0, 6)

    def test_strictly_better_all_win(self):
        sys_r = self.report({f"q{i}": 0.9 for i in range(4)})
        base = self.report({f"q{i}": 0.1 for i in range(4)})
        assert win_tie(sys_r, base) == (4, 0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            qids = [f"q{i}" for i in range(12)]
            a = {q: float(rng.uniform(0, 1)) for q in qids}
            b = {q: float(rng.uniform(0, 1)) for q in qids}
            wins, ties = win_tie(self.report(a), self.report(b))
            expected_wins = sum(a[q] > b[q] + 1e-9 for q in qids)
            expected_ties = sum(abs(a[q] - b[q]) <= 1e-9 for q in qids)
            assert (wins, ties) == (expected_wins, expected_ties)
            losses = len(qids) - wins - ties
            assert wins + ties + losses == len(qids)

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError, match="same query set"):
            win_tie(self.report({"q1": 0.5}), self.report({"q2": 0.5}))


class TestPairedTTest:
    def test_equal_vectors(self):
        assert paired_t_test([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == (0.0, 1.0)

    def test_swap_negates_t_preserves_p(self):
        rng = np.random.default_rng(54)
        a = rng.uniform(0, 1, size=10)
        b = rng.uniform(0, 1, size=10)
        t_ab, p_ab = paired_t_test(a, b)
        t_ba, p_ba = paired_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba, rel=1e-12)
        assert p_ab == pytest.approx(p_ba, rel=1e-12)

    def test_fixed_vectors_match_reference(self):
        a = [0.52, 0.61, 0.43, 0.79, 0.66, 0.50, 0.58, 0.71, 0.49, 0.63]
        b = [0.48, 0.55, 0.47, 0.70, 0.61, 0.52, 0.50, 0.69, 0.45, 0.60]
        t, p = paired_t_test(a, b)
        assert t == pytest.approx(2.7247463045653313, abs=1e-9)
        assert p == pytest.approx(0.023425107930961676, abs=1e-6)

    def test_matches_library_oracle_on_random_pairs(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            a = rng.uniform(0, 1, size=n)
            b = a + rng.normal(0, 0.1, size=n)
            t, p = paired_t_test(a, b)
            ref = stats.ttest_rel(a, b)
            assert t == pytest.approx(float(ref.statistic), rel=1e-9, abs=1e-12)
            assert p == pytest.approx(float(ref.pvalue), abs=1e-6)

    def test_constant_nonzero_difference(self):
        t, p = paired_t_test([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert t == math.inf and p == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])


class TestRunIO:
    def test_round_trip_exact_scores(self, tmp_path):
        rng = np.random.default_rng(56)
        runs = {
            "q2": RankedList.from_scores([("a", rng.uniform()), ("b", rng.uniform())]),
            "q1": RankedList.from_scores([("c", 1.0 / 3.0)]),
        }
        path = str(tmp_path / "run.txt")
        write_run(path, runs, "t")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = read_run(path)
        assert set(loaded) == {"q1", "q2"}
        for qid in runs:
            assert [(e.docid, e.score, e.rank) for e in loaded[qid]] == [
                (e.docid, e.score, e.rank) for e in runs[qid]
            ]

    def test_format_line_shape(self, tmp_path):
        runs = {"q1": RankedList.from_scores([("doc9", 1.5)])}
        path = str(tmp_path / "run.txt")
        write_run(path, runs, "mytag")
        assert open(path).read() == "q1 Q0 doc9 1 1.5 mytag\n"

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0\n")
        with pytest.raises(ValueError, match="6 fields"):
            read_run(str(path))

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "run.txt"
        path.write_text(f"q Q0 p1 1 2.0 x\nq Q0 p0 2 {score} x\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: non-finite score")):
            read_run(str(path))

    def test_unparsable_score_names_line(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q Q0 p0 1 high x\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: bad rank")):
            read_run(str(path))

    def test_duplicate_docid_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_run(str(path))

    def test_out_of_order_scores_warn(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 2.0 t\n")
        with pytest.warns(UserWarning, match="non-increasing"):
            read_run(str(path))

    def test_file_ranks_are_kept_and_warned_about(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 0 3.0 t\nq1 Q0 d2 5 2.0 t\nq1 Q0 d3 5 1.0 t\nq2 Q0 d1 1 1.0 t\n")
        with pytest.warns(UserWarning) as caught:
            runs = read_run(str(path))
        assert [str(w.message) for w in caught] == [f"{path}: query 'q1' rank 0 at position 1"]
        assert [(e.docid, e.score, e.rank) for e in runs["q1"]] == [("d1", 3.0, 0), ("d2", 2.0, 5), ("d3", 1.0, 5)]
        assert runs["q1"].head(2).entries == runs["q1"].entries[:2]
        out = tmp_path / "again.txt"
        write_run(str(out), runs, "t")
        assert out.read_text() == path.read_text()

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_bytes(b"q1 Q0 d1 1 2.0 t\nq1 Q0 d\xff 2 1.0 t\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: invalid UTF-8 at byte 7")):
            read_run(str(path))

    def test_crlf_lines_parse(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_bytes(b"q1 Q0 d1 1 2.0 t\r\nq1 Q0 d2 2 1.0 t\r\n")
        assert read_run(str(path))["q1"] == RankedList.from_scores([("d1", 2.0), ("d2", 1.0)])

    @pytest.mark.parametrize("tag", ["", "my run", "tab\there"])
    def test_bad_tag_refused_before_writing(self, tmp_path, tag):
        path = tmp_path / "run.txt"
        runs = {"q1": RankedList.from_scores([("d1", 1.0)])}
        with pytest.raises(ValueError, match="^run tag "):
            write_run(str(path), runs, tag)
        assert not path.exists()


class TestQrelsIO:
    def test_round_trip(self, tmp_path):
        qrels = {"q2": {"a": 0, "b": 4}, "q1": {"c": 2}}
        path = str(tmp_path / "qrels.txt")
        write_qrels(qrels, path)
        assert read_qrels(path) == qrels

    def test_grade_range_enforced(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 7\n")
        with pytest.raises(ValueError, match="grade"):
            read_qrels(str(path))

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_bytes(b"q1 0 d1 2\nq\xff 0 d2 1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: invalid UTF-8 at byte 1")):
            read_qrels(str(path))

    def test_crlf_lines_parse(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_bytes(b"q1 0 d1 2\r\nq1 0 d2 1\r\n")
        assert read_qrels(str(path)) == {"q1": {"d1": 2, "d2": 1}}


# Run and qrels lines are whitespace-separated, so ids may hold any other
# character that UTF-8 can encode.
ids = st.text(st.characters(codec="utf-8"), min_size=1, max_size=8).filter(
    lambda s: not WHITESPACE.search(s)
)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        ids,
        st.dictionaries(ids, st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
        min_size=1,
        max_size=4,
    ),
    ids,
)
def test_run_round_trip_is_exact(scored, tag):
    runs = {qid: RankedList.from_scores(docs.items()) for qid, docs in scored.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.txt")
        write_run(path, runs, tag)
        with open(path, "rb") as fh:
            line_tags = [raw.decode("utf-8").split()[5] for raw in fh]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = read_run(path)
    assert line_tags == [tag] * sum(map(len, runs.values()))
    assert loaded.keys() == runs.keys()
    for qid, ranked in runs.items():
        # float.hex tells -0.0 from 0.0, which == does not
        assert [(e.docid, e.score.hex(), e.rank) for e in loaded[qid]] == [
            (e.docid, e.score.hex(), e.rank) for e in ranked
        ]


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        ids, st.dictionaries(ids, st.integers(0, MAX_GRADE), min_size=1, max_size=5), min_size=1, max_size=4
    )
)
def test_qrels_round_trip_keeps_every_grade(qrels):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "qrels.txt")
        write_qrels(qrels, path)
        assert read_qrels(path) == qrels
