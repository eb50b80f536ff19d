"""Command-line workflows over the planted dataset."""

import argparse
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cqe import cli, dense
from cqe.core import TokenEmbeddingMatrix, load_token_matrices, pool, save_token_matrices
from cqe.corpus import Corpus, Passage, tokenize, write_jsonl
from cqe.dense import PassageEmbeddingStore, save_embeddings
from cqe.evaluation import read_qrels, read_run, write_qrels, write_run
from cqe.fusion import FusionConfig, rrf
from cqe.ranking import RankedList
from cqe.sparse import InvertedIndex, build_index, save_index, search_sparse
from cqe.synth import write_planted_dataset
from cqe.trainer import ToyQueryEncoder, load_weak_labels, save_weak_labels
from test_dense import reference_search_dense
from test_fusion import reference_rrf


@pytest.fixture(scope="session")
def workspace(tmp_path_factory, planted):
    """Planted dataset files plus CLI-built index, labels, and encoders."""
    root = tmp_path_factory.mktemp("cli")
    paths = write_planted_dataset(planted, str(root))
    paths["root"] = str(root)
    paths["index"] = str(root / "index.bin")
    assert cli.main(["index-sparse", "--corpus", paths["corpus"], "--output", paths["index"]]) == 0

    paths["labels"] = str(root / "labels.jsonl")
    assert (
        cli.main(
            [
                "build-weak-labels",
                "--index", paths["index"],
                "--store", paths["store"],
                "--sessions", paths["sessions"],
                "--output", paths["labels"],
            ]
        )
        == 0
    )
    held = set(planted.held_out_qids)
    all_labels = load_weak_labels(paths["labels"])
    paths["labels_train"] = str(root / "labels_train.jsonl")
    save_weak_labels([t for t in all_labels if t.qid not in held], paths["labels_train"])

    common = [
        "--labels", paths["labels_train"],
        "--sessions", paths["sessions"],
        "--store", paths["store"],
        "--seed", "0",
    ]
    paths["encoder"] = str(root / "encoder.json")
    assert cli.main(["train-toy", *common, "--output", paths["encoder"]]) == 0
    paths["encoder_untrained"] = str(root / "untrained.json")
    assert cli.main(["train-toy", *common, "--steps", "0", "--output", paths["encoder_untrained"]]) == 0
    return paths


def run_cli(argv):
    return cli.main(argv)


class TestIndexAndSearch:
    def test_index_summary_printed(self, workspace, capsys, tmp_path):
        out = str(tmp_path / "again.bin")
        assert run_cli(["index-sparse", "--corpus", workspace["corpus"], "--output", out]) == 0
        assert "indexed 100 passages" in capsys.readouterr().out

    def test_search_sparse_produces_clean_run(self, workspace, tmp_path):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            json.dumps({"qid": "q1", "text": "topic0 overview"})
            + "\n"
            + json.dumps({"qid": "q2", "text": "word1 word2"})
            + "\n"
        )
        out = str(tmp_path / "run.txt")
        assert (
            run_cli(
                ["search-sparse", "--index", workspace["index"], "--queries", str(queries),
                 "--k", "20", "--output", out]
            )
            == 0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = read_run(out)
        assert set(runs) == {"q1", "q2"}
        assert runs["q1"].entries[0].docid.startswith("P00")

    def test_search_dense_encoder_route(self, workspace, tmp_path):
        out = str(tmp_path / "dense.txt")
        assert (
            run_cli(
                ["search-dense", "--store", workspace["store"], "--encoder", workspace["encoder"],
                 "--sessions", workspace["sessions"], "--k", "10", "--output", out]
            )
            == 0
        )
        runs = read_run(out)
        assert len(runs) == 30
        assert all(len(r) == 10 for r in runs.values())


    def test_truncated_index_is_a_clean_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "p0", "text": "red fox"}\n{"id": "p1", "text": "blue fox"}\n')
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"qid": "q", "text": "fox"}) + "\n")
        index = tmp_path / "index.bin"
        assert run_cli(["index-sparse", "--corpus", str(corpus), "--output", str(index)]) == 0
        raw = index.read_bytes()
        cut = tmp_path / "cut.bin"
        search = ["search-sparse", "--index", str(cut), "--queries", str(queries), "--output", str(tmp_path / "run.txt")]
        capsys.readouterr()
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            assert run_cli(search) == 1, size
            assert capsys.readouterr().err.startswith(f"error: {cut}: "), size
        cut.write_bytes(raw)
        assert run_cli(search) == 0


    @pytest.mark.parametrize("bad_id", ["a b", "", "tab\there"])
    def test_index_with_empty_or_whitespace_id_is_refused(self, bad_id, tmp_path, capsys):
        good = build_index(Corpus([Passage("p0", "red fox"), Passage("p1", "blue fox")]))
        index = str(tmp_path / "index.bin")
        save_index(InvertedIndex(["p0", bad_id], good.doc_lengths, good.spans, good.ordinals, good.tfs, good.config), index)
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"qid": "q", "text": "fox"}) + "\n")
        capsys.readouterr()
        argv = ["search-sparse", "--index", index, "--queries", str(queries), "--output", str(tmp_path / "run.txt")]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {index}: section IDMP: passage id {bad_id!r}")

    def test_index_with_a_repeated_id_is_refused_by_name(self, tmp_path, capsys):
        good = build_index(Corpus([Passage("p0", "red fox"), Passage("p1", "blue fox")]))
        index = str(tmp_path / "index.bin")
        save_index(InvertedIndex(["p1", "p1"], good.doc_lengths, good.spans, good.ordinals, good.tfs, good.config), index)
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"qid": "q", "text": "fox"}) + "\n")
        capsys.readouterr()
        argv = ["search-sparse", "--index", index, "--queries", str(queries), "--output", str(tmp_path / "run.txt")]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {index}: section IDMP: duplicate passage id 'p1'\n"

    @pytest.mark.parametrize("command", ["search-sparse", "fuse-rrf"])
    @pytest.mark.parametrize("tag", ["my run", "", "tab\there"])
    def test_bad_run_tag_is_refused_before_writing(self, command, tag, workspace, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"qid": "q", "text": "topic0"}) + "\n")
        run = str(tmp_path / "in.txt")
        write_run(run, {"q": RankedList.from_scores([("a", 1.0)])}, "t")
        out = tmp_path / "run.txt"
        inputs = {"search-sparse": ["--index", workspace["index"], "--queries", str(queries)],
                  "fuse-rrf": ["--runs", run]}[command]
        capsys.readouterr()
        assert run_cli([command, *inputs, "--tag", tag, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: run tag ")
        assert not out.exists()


class TestHybridConsistency:
    def test_alpha_zero_matches_dense(self, workspace, tmp_path):
        dense_out = str(tmp_path / "dense.txt")
        hybrid_out = str(tmp_path / "hybrid.txt")
        base = ["--store", workspace["store"], "--encoder", workspace["encoder"],
                "--sessions", workspace["sessions"]]
        assert run_cli(["search-dense", *base, "--k", "10", "--output", dense_out]) == 0
        assert (
            run_cli(
                ["search-hybrid", *base, "--index", workspace["index"], "--alpha", "0",
                 "--depth", "100", "--k", "10", "--output", hybrid_out]
            )
            == 0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dense_runs = read_run(dense_out)
            hybrid_runs = read_run(hybrid_out)
        for qid in dense_runs:
            assert hybrid_runs[qid].docids() == dense_runs[qid].docids()


class TestNonFiniteSettings:
    """A setting that makes scores infinite is refused with one error line, before any output is written."""

    def refused(self, argv, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("topic0 overview\n"))  # a turn for converse
        capsys.readouterr()
        rc = run_cli(argv)  # a RuntimeWarning fails the test (pyproject's filter); any other warning is a stderr line
        out, err = capsys.readouterr()
        assert rc == 1 and "Traceback" not in err and err.count("\n") == 1 and err.startswith("error: ")
        return out, err

    def hybrid(self, workspace, out, *flags):
        return ["search-hybrid", "--index", workspace["index"], "--store", workspace["store"], "--encoder",
                workspace["encoder"], "--sessions", workspace["sessions"], "--k", "3", "--output", str(out), *flags]

    @pytest.mark.parametrize("alpha, message", [
        ("inf", "alpha must be finite and >= 0, got inf"),
        ("1e308", "alpha 1e+308 overflows a fused score"),
    ])
    def test_search_hybrid_alpha(self, alpha, message, workspace, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run.txt"
        _, err = self.refused(self.hybrid(workspace, out, "--alpha", alpha), capsys, monkeypatch)
        assert err == f"error: {message}\n" and not out.exists()

    def test_alpha_from_a_config_file(self, workspace, tmp_path, capsys, monkeypatch):
        config, out = tmp_path / "config.json", tmp_path / "run.txt"
        config.write_text('{"fusion": {"alpha": 1e999}}')
        _, err = self.refused(self.hybrid(workspace, out, "--config", str(config)), capsys, monkeypatch)
        assert err == f"error: {config}: alpha must be finite and >= 0, got inf\n" and not out.exists()

    def test_converse_alpha(self, workspace, capsys, monkeypatch):
        argv = ["converse", "--index", workspace["index"], "--store", workspace["store"],
                "--encoder", workspace["encoder"], "--alpha", "inf"]
        assert self.refused(argv, capsys, monkeypatch) == ("", "error: alpha must be finite and >= 0, got inf\n")

    def test_fuse_rrf_k(self, tmp_path, capsys, monkeypatch):
        run_path, out = str(tmp_path / "run.txt"), tmp_path / "fused.txt"
        write_run(run_path, {"q1": RankedList.from_scores([("d1", 1.0), ("d2", 0.5)])}, "t")
        argv = ["fuse-rrf", "--runs", run_path, run_path, "--rrf-k", "inf", "--output", str(out)]
        _, err = self.refused(argv, capsys, monkeypatch)
        assert err == "error: rrf_k must be finite and > 0, got inf\n" and not out.exists()

    def test_index_sparse_k1(self, workspace, tmp_path, capsys, monkeypatch):
        out = tmp_path / "index.bin"
        argv = ["index-sparse", "--corpus", workspace["corpus"], "--k1", "inf", "--output", str(out)]
        _, err = self.refused(argv, capsys, monkeypatch)
        assert err == "error: k1 must be finite and >= 0, got inf\n" and not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "learning_rate must be finite and >= 0, got nan"),
        ("--lr", "inf", "learning_rate must be finite and >= 0, got inf"),
        ("--lr", "1e308", "{out}: parameters overflow float32"),
        ("--tau", "inf", "tau must be finite and > 0, got inf"),
    ])
    def test_train_toy(self, flag, value, message, workspace, tmp_path, capsys, monkeypatch):
        out = tmp_path / "encoder.json"
        argv = ["train-toy", "--labels", workspace["labels_train"], "--sessions", workspace["sessions"],
                "--store", workspace["store"], "--steps", "1", flag, value, "--output", str(out)]
        _, err = self.refused(argv, capsys, monkeypatch)
        assert err == f"error: {message.format(out=out)}\n" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        "--steps 3 --lr 1e308",
        "--steps 20 --lr 1e308",
        "--steps 3 --tau 1e-300",
        "--steps 3 --lr 1e300 --soft-labels --hard-negatives",
    ])
    def test_train_toy_overflow_during_training(self, flags, workspace, tmp_path, capsys, monkeypatch):
        out = tmp_path / "encoder.json"
        argv = ["train-toy", "--labels", workspace["labels_train"], "--sessions", workspace["sessions"],
                "--store", workspace["store"], *flags.split(), "--output", str(out)]
        _, err = self.refused(argv, capsys, monkeypatch)
        assert err == "error: non-finite loss at step 1\n" and list(tmp_path.iterdir()) == []

    def test_index_whose_conf_holds_an_infinite_k1(self, workspace, tmp_path, capsys, monkeypatch):
        index, out = tmp_path / "index.bin", tmp_path / "run.txt"
        raw = bytearray(pathlib.Path(workspace["index"]).read_bytes())
        raw[24:32] = np.float64(np.inf).tobytes()  # CONF is the first section; k1 leads its payload
        index.write_bytes(bytes(raw))
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"qid": "q", "text": "topic0 overview"}) + "\n")
        argv = ["search-sparse", "--index", str(index), "--queries", str(queries), "--output", str(out)]
        _, err = self.refused(argv, capsys, monkeypatch)
        assert err == f"error: {index}: section CONF: k1 must be finite and >= 0, got inf\n" and not out.exists()


class TestRewrite:
    def matrices_file(self, tmp_path):
        context = np.diag([9.0, 2.0, 1.0])
        query = np.ones((2, 3))
        matrix = TokenEmbeddingMatrix(
            ["history", "start", "end", "why", "that"], np.vstack([context, query]), 3
        )
        path = str(tmp_path / "matrices.jsonl")
        save_token_matrices({"q1": matrix}, path)
        return path

    def test_gamma_flag_controls_selection(self, workspace, tmp_path):
        matrices = self.matrices_file(tmp_path)
        out = str(tmp_path / "rewritten.jsonl")
        assert run_cli(["rewrite", "--matrices", matrices, "--gamma", "5", "--output", out]) == 0
        record = json.loads(open(out).read())
        assert record == {"qid": "q1", "text": "why that history"}

    def test_matrix_value_too_large_for_a_float_is_refused(self, tmp_path, capsys):
        path = self.matrices_file(tmp_path)
        with open(path, "a") as fh:
            fh.write('{"qid": "q2", "tokens": ["a"], "context_len": 0, "vectors": [[1' + "0" * 400 + ", 0, 0]]}\n")
        capsys.readouterr()
        assert run_cli(["rewrite", "--matrices", path, "--output", str(tmp_path / "out.jsonl")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")

    def test_gamma_zero_keeps_all(self, workspace, tmp_path):
        matrices = self.matrices_file(tmp_path)
        out = str(tmp_path / "rewritten.jsonl")
        assert run_cli(["rewrite", "--matrices", matrices, "--gamma", "0", "--output", out]) == 0
        record = json.loads(open(out).read())
        assert record["text"] == "why that history start end"


class TestFuseRRF:
    def test_matches_library_fusion(self, tmp_path):
        rng = np.random.default_rng(70)
        run_a = {"q1": RankedList.from_scores([(f"d{i}", float(rng.uniform())) for i in range(8)])}
        run_b = {"q1": RankedList.from_scores([(f"d{i}", float(rng.uniform())) for i in range(4, 12)])}
        path_a, path_b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        write_run(path_a, run_a, "a")
        write_run(path_b, run_b, "b")
        out = str(tmp_path / "fused.txt")
        assert run_cli(["fuse-rrf", "--runs", path_a, path_b, "--output", out]) == 0
        fused = read_run(out)["q1"]
        expected = rrf([run_a["q1"], run_b["q1"]], FusionConfig())
        assert fused.docids() == expected.docids()
        for got, want in zip(fused, expected):
            assert got.score == pytest.approx(want.score, rel=1e-12)

    @pytest.mark.parametrize("k", [None, 2, 3])
    def test_file_equals_reference_lines(self, k, tmp_path, capsys):
        # a and e tie (1/62 + 1/65 either way round) and take id order; run b numbers its ranks freely
        runs = {
            "a": [("q1", "b", 1, 2.0), ("q1", "a", 2, 2.0), ("q1", "c", 3, 1.0), ("q1", "f", 4, 0.5),
                  ("q1", "e", 5, 0.5), ("q2", "x", 1, 1.0)],
            "b": [("q1", "e", 2, 0.5), ("q1", "a", 5, 0.4), ("q1", "d", 5, 0.3), ("q1", "b", 11, 0.1)],
        }
        for name, rows in runs.items():
            (tmp_path / name).write_text("".join(f"{q} Q0 {d} {r} {s!r} {name}\n" for q, d, r, s in rows))
        out = tmp_path / "fused.txt"
        argv = ["fuse-rrf", "--runs", str(tmp_path / "a"), str(tmp_path / "b"), "--output", str(out)]
        assert run_cli([*argv, *(["--k", str(k)] if k else [])]) == 0
        assert capsys.readouterr().err == f"warning: {tmp_path / 'b'}: query 'q1' rank 2 at position 1\n"
        with pytest.warns(UserWarning, match="rank 2 at position 1"):  # outside main, an ordinary warning
            read_run(str(tmp_path / "b"))
        want = ""
        for q in ("q1", "q2"):
            per_run = [[(d, s, r) for qid, d, r, s in rows if qid == q] for rows in runs.values()]
            want += "".join(f"{q} Q0 {d} {r} {s!r} rrf\n" for d, s, r in reference_rrf(per_run, 60.0, k))
        assert out.read_bytes() == want.encode()
        tie = 1 / 62 + 1 / 65
        assert want.startswith(f"q1 Q0 a 1 {tie!r} rrf\nq1 Q0 e 2 {tie!r} rrf\n")


class TestEval:
    def test_ideal_run_prints_perfect_ndcg(self, tmp_path, capsys):
        qrels = {"q1": {"a": 4, "b": 2, "c": 1}, "q2": {"x": 3, "y": 2}}
        qrels_path = str(tmp_path / "qrels.txt")
        write_qrels(qrels, qrels_path)
        runs = {
            qid: RankedList.from_scores([(d, float(g)) for d, g in judged.items()])
            for qid, judged in qrels.items()
        }
        run_path = str(tmp_path / "ideal.txt")
        write_run(run_path, runs, "ideal")
        assert run_cli(["eval", "--run", run_path, "--qrels", qrels_path, "--metric", "ndcg"]) == 0
        out = capsys.readouterr().out
        assert "mean nDCG 1.000" in out

    def test_recall_metric_with_cutoff(self, tmp_path, capsys):
        qrels = {"q1": {"a": 2, "b": 3, "c": 0}}
        qrels_path = str(tmp_path / "qrels.txt")
        write_qrels(qrels, qrels_path)
        run_path = str(tmp_path / "run.txt")
        write_run(run_path, {"q1": RankedList.from_scores([("a", 2.0), ("z", 1.0)])}, "t")
        assert (
            run_cli(["eval", "--run", run_path, "--qrels", qrels_path,
                     "--metric", "recall", "--cutoff", "10"]) == 0
        )
        assert "mean recall@10 0.500" in capsys.readouterr().out

    @pytest.mark.parametrize("grade", ["x", "2.5"])
    def test_bad_grade_names_file_and_line(self, grade, tmp_path, capsys):
        qrels_path = tmp_path / "qrels.txt"
        qrels_path.write_text(f"q1 0 a 1\nq1 0 b {grade}\n")
        run_path = str(tmp_path / "run.txt")
        write_run(run_path, {"q1": RankedList.from_scores([("a", 1.0)])}, "t")
        capsys.readouterr()
        assert run_cli(["eval", "--run", run_path, "--qrels", str(qrels_path)]) == 1
        assert capsys.readouterr().err == f"error: {qrels_path}:2: bad grade {grade!r}\n"

    def test_missing_run_errors(self, tmp_path, capsys):
        qrels_path = str(tmp_path / "qrels.txt")
        write_qrels({"q1": {"a": 2}}, qrels_path)
        rc = run_cli(["eval", "--run", str(tmp_path / "absent.txt"), "--qrels", qrels_path])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_reports_wins_and_significance(self, tmp_path, capsys, monkeypatch):
        qrels = {f"q{i}": {"a": 3, "b": 2} for i in range(6)}
        qrels_path = str(tmp_path / "qrels.txt")
        write_qrels(qrels, qrels_path)
        better = {q: RankedList.from_scores([("a", 2.0), ("b", 1.0)]) for q in qrels}
        worse = {q: RankedList.from_scores([("x", 2.0), ("a", 1.0)]) for q in qrels}
        run_a, run_b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        write_run(run_a, better, "s")
        write_run(run_b, worse, "b")
        reads = []
        monkeypatch.setattr(cli, "read_qrels", lambda path: reads.append(path) or read_qrels(path))
        assert (
            run_cli(["compare", "--run", run_a, "--baseline", run_b,
                     "--qrels", qrels_path, "--metric", "ndcg@3"]) == 0
        )
        out = capsys.readouterr().out
        assert "wins 6 ties 0 losses 0" in out
        assert "t = " in out and "p = " in out
        assert reads == [qrels_path]


class TestTrainingPipeline:
    def recall_at_10(self, workspace, encoder_path, tmp_path, name):
        run_path = str(tmp_path / f"{name}.txt")
        assert (
            run_cli(
                ["search-dense", "--store", workspace["store"], "--encoder", encoder_path,
                 "--sessions", workspace["sessions"], "--k", "10", "--output", run_path]
            )
            == 0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # non-held-out turns are unjudged
            run = read_run(run_path)
            from cqe.evaluation import read_qrels, recall_at

            report = recall_at(run, read_qrels(workspace["qrels_held_out"]), cutoff=10)
        return report.mean

    def test_trained_encoder_beats_untrained(self, workspace, tmp_path):
        trained = self.recall_at_10(workspace, workspace["encoder"], tmp_path, "trained")
        untrained = self.recall_at_10(workspace, workspace["encoder_untrained"], tmp_path, "untrained")
        assert trained > untrained


class TestConverse:
    SCRIPT = "topic0 filler overview\nwhy did it change over time\nreset\ntopic1 filler overview\nexit\n"

    def converse(self, workspace, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.SCRIPT))
        rc = run_cli(
            ["converse", "--index", workspace["index"], "--store", workspace["store"],
             "--encoder", workspace["encoder"], "--k", "5"]
        )
        assert rc == 0
        return capsys.readouterr().out

    def test_first_turn_rewrite_is_raw_query(self, workspace, monkeypatch, capsys):
        out = self.converse(workspace, monkeypatch, capsys)
        assert "turn 1 (0 context tokens)" in out
        assert "rewrite: topic0 filler overview" in out

    def test_reset_clears_context(self, workspace, monkeypatch, capsys):
        out = self.converse(workspace, monkeypatch, capsys)
        assert "context cleared" in out
        # after reset the next utterance is turn 1 again
        assert out.count("turn 1 (0 context tokens)") == 2
        assert "turn 2 (3 context tokens)" in out

    @pytest.mark.parametrize("flag", ["--k", "--depth"])
    def test_bad_depth_fails_before_any_output(self, flag, workspace, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("alpha beta\n"))
        capsys.readouterr()
        rc = run_cli(
            ["converse", "--index", workspace["index"], "--store", workspace["store"],
             "--encoder", workspace["encoder"], flag, "0"]
        )
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err == f"error: {flag[2:]} must be >= 1, got 0\n"

    def test_replay_is_byte_identical(self, workspace, monkeypatch, capsys):
        first = self.converse(workspace, monkeypatch, capsys)
        second = self.converse(workspace, monkeypatch, capsys)
        assert first == second

    def test_each_turn_rewrites_once_and_prints_the_searched_bag(self, workspace, monkeypatch, capsys):
        import cqe.core
        import cqe.fusion

        rewrites, searched = [], []
        original = cqe.core.decontextualize

        def counted(*args, **kwargs):
            rewrites.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):  # every cqe module that bound it by name
            if name == "cqe" or name.startswith("cqe."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        search_sparse = cqe.fusion.search_sparse

        def spy(index, query_tokens, k):
            searched.append(list(query_tokens))
            return search_sparse(index, query_tokens, k)

        monkeypatch.setattr(cqe.fusion, "search_sparse", spy)
        monkeypatch.setattr("sys.stdin", io.StringIO("topic0 filler overview\nwhy did it change over time\n"))
        assert run_cli(["converse", "--index", workspace["index"], "--store", workspace["store"],
                        "--encoder", workspace["encoder"], "--k", "5"]) == 0
        printed = [line[len("rewrite: "):] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("rewrite: ")]
        assert len(rewrites) == 2
        assert printed == [" ".join(bag) for bag in searched] and len(searched) == 2


class TestFusionOverShuffledStore:
    """search-hybrid and converse write the bytes the string-keyed reference fusion gives: over the planted store,
    whose ids match the index's so both share one table, and over a copy with its rows shuffled, which does not."""

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_run_and_transcript_equal_the_reference_fusion(self, shuffled, workspace, tmp_path, monkeypatch, capsys):
        import cqe.fusion
        from cqe.dense import load_embeddings
        from cqe.sparse import load_index
        from test_fusion import reference_hybrid_combine

        store = workspace["store"]
        if shuffled:
            planted = load_embeddings(store)
            order = np.random.default_rng(51).permutation(planted.count)
            store = str(tmp_path / "shuffled.json")
            save_embeddings(PassageEmbeddingStore([planted.ids[i] for i in order], planted.vectors[order]), store)
        index = load_index(workspace["index"])
        assert (load_embeddings(store, index.table).table is index.table) is not shuffled
        fused, outputs = [], {}

        def reference(sparse, dense, config):
            fused.append(len(sparse))
            return reference_hybrid_combine(sparse, dense, config)

        for name, combine in (("reference", reference), ("library", cqe.fusion.hybrid_combine)):
            monkeypatch.setattr(cqe.fusion, "hybrid_combine", combine)
            run = tmp_path / name / "run.txt"
            run.parent.mkdir()
            assert run_cli(["search-hybrid", "--index", workspace["index"], "--store", store, "--encoder",
                            workspace["encoder"], "--sessions", workspace["sessions"], "--depth", "40", "--k", "15",
                            "--output", str(run)]) == 0
            capsys.readouterr()
            monkeypatch.setattr("sys.stdin", io.StringIO(TestConverse.SCRIPT))
            assert run_cli(["converse", "--index", workspace["index"], "--store", store, "--encoder",
                            workspace["encoder"], "--depth", "40", "--k", "5"]) == 0
            outputs[name] = run.read_bytes(), capsys.readouterr().out
        assert len(fused) > 3
        assert outputs["library"] == outputs["reference"]


class TestConfig:
    def test_module_defaults(self):
        cfg = cli.EngineConfig()
        assert cfg.bm25.k1 == 0.82 and cfg.bm25.b == 0.68
        assert cfg.rewrite.gamma == 10.5
        assert cfg.hybrid_rewrite.gamma == 12.0
        assert cfg.fusion.alpha == 0.1 and cfg.fusion.rrf_k == 60
        assert cfg.train.tau == 1.0

    def test_from_file_and_flag_override(self, workspace, tmp_path, capsys):
        config = {
            "paths": {"corpus": workspace["corpus"]},
            "rewrite": {"gamma": 3.0},
            "bm25": {"k1": 1.2},
        }
        config_path = str(tmp_path / "config.json")
        open(config_path, "w").write(json.dumps(config))
        cfg = cli.EngineConfig.from_file(config_path)
        assert cfg.rewrite.gamma == 3.0 and cfg.bm25.k1 == 1.2
        assert cfg.corpus == workspace["corpus"]

        # flags beat config: index with config (k1=1.2) but override b
        out = str(tmp_path / "idx.bin")
        assert run_cli(["index-sparse", "--config", config_path, "--output", out, "--b", "0.5"]) == 0
        from cqe.sparse import load_index

        index = load_index(out)
        assert index.config.k1 == 1.2 and index.config.b == 0.5

    @pytest.mark.parametrize("section, key", [("fusion", "zeta"), ("rewrite", "exclude_special_tokens"),
                                              ("hybrid_rewrite", "exclude_special_tokens")])
    def test_unknown_config_keys_rejected(self, section, key, tmp_path):
        config_path = str(tmp_path / "config.json")
        open(config_path, "w").write(json.dumps({section: {key: True}}))
        with pytest.raises(ValueError, match=re.escape(f"{config_path}: unknown {section} settings ['{key}']")):
            cli.EngineConfig.from_file(config_path)

    def test_env_var_fallback(self, workspace, tmp_path, monkeypatch, capsys):
        config = {"paths": {"corpus": workspace["corpus"]}}
        config_path = str(tmp_path / "config.json")
        open(config_path, "w").write(json.dumps(config))
        monkeypatch.setenv(cli.ENV_CONFIG, config_path)
        out = str(tmp_path / "idx.bin")
        assert run_cli(["index-sparse", "--output", out]) == 0
        assert "indexed 100 passages" in capsys.readouterr().out


# The config field each path flag overrides; index-sparse's --output names the index it writes.
PATH_FLAGS = {"corpus": "--corpus", "sparse_index": "--index", "dense_store": "--store",
              "query_matrices": "--matrices", "qrels": "--qrels"}
CONFIG_PATHS = [
    ("index-sparse", "corpus"), ("index-sparse", "sparse_index"),
    ("search-sparse", "sparse_index"),
    ("search-dense", "dense_store"), ("search-dense", "query_matrices"),
    ("search-hybrid", "sparse_index"), ("search-hybrid", "dense_store"), ("search-hybrid", "query_matrices"),
    ("rewrite", "query_matrices"),
    ("build-weak-labels", "corpus"), ("build-weak-labels", "sparse_index"), ("build-weak-labels", "dense_store"),
    ("train-toy", "corpus"), ("train-toy", "dense_store"),
    ("eval", "qrels"), ("compare", "qrels"),
    ("converse", "sparse_index"), ("converse", "dense_store"), ("converse", "query_matrices"),
]
CONVERSE_SCRIPT = "topic0 filler overview\nwhy did it change\nexit\n"


@pytest.fixture(scope="module")
def path_inputs(workspace, tmp_path_factory):
    """The workspace plus token matrices, text queries and two run files over the planted qrels."""
    root = tmp_path_factory.mktemp("config_paths")
    files = dict(workspace)
    encoder = ToyQueryEncoder.load(workspace["encoder"])
    files["matrices"] = str(root / "matrices.jsonl")
    save_token_matrices({"turn_1": encoder.encode([], ["topic0", "filler", "overview"]),
                         "turn_2": encoder.encode(["topic0", "filler", "overview"], ["why", "did", "it", "change"])},
                        files["matrices"])
    files["queries"] = str(root / "queries.jsonl")
    with open(files["queries"], "w") as fh:
        fh.write(json.dumps({"qid": "q1", "text": "topic0 overview"}) + "\n")
    qrels = read_qrels(workspace["qrels"])
    for name, sign in (("run_a", 1.0), ("run_b", -1.0)):
        files[name] = str(root / f"{name}.txt")
        write_run(files[name], {q: RankedList.from_scores([(d, sign * g) for d, g in judged.items()])
                                for q, judged in qrels.items()}, name)
    return files


def path_flags(command, files, out):
    """(flag, value) pairs of a complete ``command`` invocation."""
    index, store, matrices = ("--index", files["index"]), ("--store", files["store"]), ("--matrices", files["matrices"])
    corpus, sessions, output = ("--corpus", files["corpus"]), ("--sessions", files["sessions"]), ("--output", out)
    return {
        "index-sparse": [corpus, output],
        "search-sparse": [index, ("--queries", files["queries"]), output],
        "search-dense": [store, matrices, output],
        "search-hybrid": [index, store, matrices, ("--depth", "50"), output],
        "rewrite": [matrices, output],
        # build-weak-labels and train-toy take the unread --corpus, as perfbench passes it, after a path they read
        "build-weak-labels": [index, corpus, store, sessions, ("--depth", "20"), ("--pool-size", "10"), output],
        "train-toy": [("--labels", files["labels_train"]), sessions, corpus, store, ("--steps", "3"), output],
        "eval": [("--run", files["run_a"]), ("--qrels", files["qrels"])],
        "compare": [("--run", files["run_a"]), ("--baseline", files["run_b"]), ("--qrels", files["qrels"])],
        "converse": [index, store, matrices, ("--k", "3")],
    }[command]


class TestPathsFromConfig:
    @pytest.mark.parametrize("command,field", CONFIG_PATHS)
    def test_config_path_acts_as_its_flag(self, command, field, path_inputs, tmp_path, monkeypatch, capsys):
        """The flag beats a config path that does not exist; the config path alone does what the flag did."""
        out = str(tmp_path / "out.json")
        pairs = path_flags(command, path_inputs, out)
        flag = "--output" if command == "index-sparse" and field == "sparse_index" else PATH_FLAGS[field]
        (value,) = [v for f, v in pairs if f == flag]
        config = tmp_path / "config.json"
        results = []
        for path, kept in ((str(tmp_path / "absent"), pairs), (value, [(f, v) for f, v in pairs if f != flag])):
            config.write_text(json.dumps({"paths": {field: path}}))
            monkeypatch.setattr("sys.stdin", io.StringIO(CONVERSE_SCRIPT))
            assert run_cli([command, "--config", str(config), *[a for pair in kept for a in pair]]) == 0
            written = open(out, "rb").read() if os.path.exists(out) else None
            if written is not None:
                os.remove(out)
            results.append((capsys.readouterr().out, written))
        assert results[0][0] and results[0] == results[1]


STDERR_CHECK = """
import contextlib, io, json, sys
from cqe import cli
results = []
for argv in json.loads(sys.argv[1]):
    sys.stdin, err = io.StringIO("topic0 filler overview\\nexit\\n"), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append((argv[0], cli.main(argv), err.getvalue()))
print(json.dumps(results))
"""


def test_stderr_holds_only_error_and_warning_lines(path_inputs, tmp_path):
    """Outside pytest's warning filters, every command's stderr is ``error:`` and ``warning:`` lines only."""
    out, gap = str(tmp_path / "out"), tmp_path / "gap.txt"
    gap.write_text("q1 Q0 a 2 1.0 gap\n")  # its rank gap warns
    held_out = ("--qrels", path_inputs["qrels_held_out"])  # unjudged run queries warn
    good = {command: path_flags(command, path_inputs, out) for command in COMMAND_OPTIONS if command != "fuse-rrf"}
    good["fuse-rrf"] = [("--runs", str(gap)), ("--output", out)]
    for command in ("eval", "compare"):
        good[command] = [*good[command][:-1], held_out]
    missing = {command: [(pairs[0][0], str(tmp_path / "missing")), *pairs[1:]] for command, pairs in good.items()}
    overflow = [*good["train-toy"], ("--lr", "1e308")]
    calls = [[command, *[a for pair in pairs for a in pair]]
             for command, pairs in [*good.items(), *missing.items(), ("train-toy", overflow)]]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", STDERR_CHECK, json.dumps(calls)], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results, faults = json.loads(proc.stdout), []
    for command, rc, err in results:
        lines = err.splitlines()
        if not all(line.startswith(("error: ", "warning: ")) for line in lines):
            faults.append((command, "a line that is neither error: nor warning:"))
        if rc != 0 and sum(line.startswith("error: ") for line in lines) != 1:
            faults.append((command, "not exactly one error: line"))
    assert faults == [], proc.stdout
    assert [rc for _, rc, _ in results] == [0] * len(good) + [1] * len(missing) + [1]
    warned = {command for command, _, err in results[: len(good)] if "warning: " in err}
    assert warned == {"eval", "compare", "fuse-rrf"}
    assert results[-1][2] == "error: non-finite loss at step 1\n"


class TestFileBackedMatrices:
    def matrices_for(self, planted, encoder_path, tmp_path, qids):
        from cqe.trainer import ToyQueryEncoder

        encoder = ToyQueryEncoder.load(encoder_path)
        by_qid = {s.qid(i): (s, i) for s in planted.sessions for i in range(len(s.turns))}
        matrices = {}
        for qid in qids:
            session, i = by_qid[qid]
            context, query = session.tokens_for_turn(i)
            matrices[qid] = encoder.encode(context, query)
        path = str(tmp_path / "matrices.jsonl")
        save_token_matrices(matrices, path)
        return path

    def test_search_dense_matrices_route_matches_encoder_route(
        self, workspace, planted, tmp_path
    ):
        qids = [s.qid(i) for s in planted.sessions[:3] for i in range(len(s.turns))]
        matrices = self.matrices_for(planted, workspace["encoder"], tmp_path, qids)
        via_matrices = str(tmp_path / "via_matrices.txt")
        assert (
            run_cli(["search-dense", "--store", workspace["store"], "--matrices", matrices,
                     "--k", "5", "--output", via_matrices]) == 0
        )
        via_encoder = str(tmp_path / "via_encoder.txt")
        assert (
            run_cli(["search-dense", "--store", workspace["store"],
                     "--encoder", workspace["encoder"], "--sessions", workspace["sessions"],
                     "--k", "5", "--output", via_encoder]) == 0
        )
        from_matrices = read_run(via_matrices)
        from_encoder = read_run(via_encoder)
        for qid in qids:
            assert from_matrices[qid].docids() == from_encoder[qid].docids()

    def test_converse_with_matrix_file(self, workspace, planted, tmp_path, monkeypatch, capsys):
        from cqe.trainer import ToyQueryEncoder

        encoder = ToyQueryEncoder.load(workspace["encoder"])
        first = encoder.encode([], ["topic0", "filler", "overview"])
        second = encoder.encode(["topic0", "filler", "overview"], ["why", "did", "it", "change"])
        path = str(tmp_path / "turns.jsonl")
        save_token_matrices({"turn_1": first, "turn_2": second}, path)

        script = "topic0 filler overview\nwhy did it change\nexit\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        rc = run_cli(
            ["converse", "--index", workspace["index"], "--store", workspace["store"],
             "--matrices", path, "--k", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "turn 1 (0 context tokens)" in out
        assert "turn 2 (3 context tokens)" in out

    @pytest.mark.parametrize("command", ["search-dense", "search-hybrid", "rewrite"])
    def test_matrix_pooling_to_infinity_is_refused_at_load(self, command, workspace, planted, tmp_path, capsys):
        # Finite rows of opposite sign near the float64 limit: their difference would overflow in pooling.
        vectors = [[1e308] * planted.store.dim, [-1e308] * planted.store.dim]
        path = str(tmp_path / "matrices.jsonl")
        write_jsonl(path, [{"qid": "q1", "tokens": ["a", "b"], "context_len": 1, "vectors": vectors}])
        inputs = {"search-dense": ["--store", workspace["store"]],
                  "search-hybrid": ["--store", workspace["store"], "--index", workspace["index"]],
                  "rewrite": []}[command]
        out = tmp_path / "out.txt"
        capsys.readouterr()
        assert run_cli([command, *inputs, "--matrices", path, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}:1: vectors hold a row with a non-finite squared norm\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["search-dense", "rewrite"])
    def test_row_whose_squared_norm_overflows_is_refused(self, command, tmp_path, capsys):
        # Rows of [1e308] * 4 pool to a finite vector, but the score against ones and the row norm overflow.
        store = str(tmp_path / "store.json")
        save_embeddings(PassageEmbeddingStore(["p0", "p1"], np.ones((2, 4), dtype=np.float32)), store)
        path = str(tmp_path / "matrices.jsonl")
        write_jsonl(path, [{"qid": "q1", "tokens": ["a", "b"], "context_len": 1, "vectors": [[1e308] * 4] * 2}])
        inputs = {"search-dense": ["--store", store], "rewrite": ["--gamma", "12"]}[command]
        out = tmp_path / "out.txt"
        capsys.readouterr()
        assert run_cli([command, *inputs, "--matrices", path, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}:1: vectors hold a row with a non-finite squared norm\n"
        assert not out.exists()

    def test_converse_missing_turn_matrix_errors(self, workspace, planted, tmp_path, monkeypatch, capsys):
        from cqe.trainer import ToyQueryEncoder

        encoder = ToyQueryEncoder.load(workspace["encoder"])
        path = str(tmp_path / "turns.jsonl")
        save_token_matrices({"turn_1": encoder.encode([], ["topic0"])}, path)
        command = ["converse", "--index", workspace["index"], "--store", workspace["store"], "--matrices", path]
        monkeypatch.setattr("sys.stdin", io.StringIO("topic0\n"))
        assert run_cli(command) == 0
        first_turn = capsys.readouterr().out
        assert first_turn.startswith("turn 1 (0 context tokens)\n") and "results:\n  1. " in first_turn
        # The number of turns is known only as stdin is read, so a turn's missing matrix ends the
        # transcript after the turns before it, with nothing of the failing turn printed.
        monkeypatch.setattr("sys.stdin", io.StringIO("topic0\nsecond utterance\n"))
        assert run_cli(command) == 1
        assert capsys.readouterr() == (first_turn, f"error: {path}: no token matrix for turn 'turn_2'\n")


class TestQuerySourceChecks:
    """The encoder or matrices file is checked against the store, and count flags against 1, before any output."""

    DIM = 32  # the planted store's

    def bad_matrices(self, planted, tmp_path):
        """20 matrices of the store's width, qids q00.., but q09 of width 5; the path."""
        assert planted.store.dim == self.DIM
        rows = [{"qid": f"q{i:02d}", "tokens": ["a", "b"], "context_len": 1,
                 "vectors": np.ones((2, 5 if i == 9 else self.DIM)).tolist()} for i in range(20)]
        path = str(tmp_path / "matrices.jsonl")
        write_jsonl(path, rows)
        return path

    def test_search_hybrid_names_the_qid_of_a_wrong_dimension(self, workspace, planted, tmp_path, capsys):
        out = tmp_path / "run.txt"
        argv = ["search-hybrid", "--index", workspace["index"], "--store", workspace["store"],
                "--matrices", self.bad_matrices(planted, tmp_path), "--output", str(out)]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert capsys.readouterr() == ("", f"error: q09: query dimension (5,) does not match store dim {self.DIM}\n")
        assert not out.exists()

    def test_converse_refuses_a_wrong_dimension_before_any_output(self, workspace, planted, tmp_path, monkeypatch,
                                                                   capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("topic0 filler overview\n"))
        argv = ["converse", "--index", workspace["index"], "--store", workspace["store"],
                "--matrices", self.bad_matrices(planted, tmp_path), "--qid-prefix", "q0"]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert capsys.readouterr() == ("", f"error: q09: query dimension (5,) does not match store dim {self.DIM}\n")

    @pytest.mark.parametrize("command", ["search-dense", "search-hybrid", "converse"])
    def test_encoder_of_another_dimension_is_refused_by_manifest(self, command, workspace, tmp_path, monkeypatch,
                                                                  capsys):
        encoder = str(tmp_path / "encoder.json")
        ToyQueryEncoder.create(["topic0", "filler"], dim=self.DIM + 1, seed=0).save(encoder)
        monkeypatch.setattr("sys.stdin", io.StringIO("topic0 filler overview\n"))
        out = tmp_path / "run.txt"
        search = ["--sessions", workspace["sessions"], "--output", str(out)]
        index = ["--index", workspace["index"]]
        inputs = {"search-dense": search, "search-hybrid": index + search, "converse": index}[command]
        capsys.readouterr()
        assert run_cli([command, "--store", workspace["store"], "--encoder", encoder, *inputs]) == 1
        dims = f"encoder dim {self.DIM + 1} does not match store dim {self.DIM}"
        assert capsys.readouterr() == ("", f"error: {encoder}: {dims}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["search-hybrid", "--depth", "0", "--index", "missing.bin"], "depth must be >= 1, got 0"),
            (["search-hybrid", "--k", "-2", "--index", "missing.bin"], "k must be >= 1, got -2"),
            (["search-dense", "--k", "0", "--store", "missing.json"], "k must be >= 1, got 0"),
            (["search-sparse", "--k", "0", "--index", "missing.bin"], "k must be >= 1, got 0"),
            (["fuse-rrf", "--runs", "missing.txt", "--k", "0"], "k must be >= 1, got 0"),
            (["build-weak-labels", "--pool-size", "0", "--sessions", "missing.jsonl", "--index", "missing.bin"],
             "pool-size must be >= 1, got 0"),
            (["build-weak-labels", "--depth", "0", "--index", "missing.bin"], "depth must be >= 1, got 0"),
            (["eval", "--cutoff", "0", "--run", "missing.txt", "--qrels", "missing.txt"], "cutoff must be >= 1, got 0"),
            (["compare", "--cutoff", "0", "--run", "missing.txt"], "cutoff must be >= 1, got 0"),
        ],
    )
    def test_count_flag_is_refused_before_any_path(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        writes = argv[0] not in ("eval", "compare")
        assert run_cli([*argv, "--output", "out.txt"] if writes else argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert os.listdir(tmp_path) == []

    def test_converse_context_is_the_session_context(self, workspace, planted, monkeypatch, capsys):
        session = max(planted.sessions, key=lambda s: len(s.turns))
        seen, real_encode = [], ToyQueryEncoder.encode

        def encode(self, context, query):
            seen.append((list(context), list(query)))
            return real_encode(self, context, query)

        monkeypatch.setattr(ToyQueryEncoder, "encode", encode)
        script = "".join(turn.raw_utterance + "\n" for turn in session.turns)
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        argv = ["converse", "--index", workspace["index"], "--store", workspace["store"],
                "--encoder", workspace["encoder"], "--k", "3"]
        assert run_cli(argv) == 0
        assert len(session.turns) > 2
        assert seen == [session.tokens_for_turn(i) for i in range(len(session.turns))]


class TestSearchDenseBatch:
    """`search-dense` scores all its queries in one blocked call; runs equal per-query search."""

    DIM = 8

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        # 300 rows in 64-row blocks: four blocks, the last taking the rest (108 rows).
        monkeypatch.setattr(dense, "BLOCK_BYTES", 1)
        rng = np.random.default_rng(21)
        vectors = rng.integers(-2, 3, (300, self.DIM)).astype(np.float32)  # coarse, so scores tie
        store = PassageEmbeddingStore([f"p{i:03d}" for i in rng.permutation(300)], vectors)
        path = str(tmp_path / "store.json")
        save_embeddings(store, path)
        return store, path

    def matrices(self, tmp_path, vectors):
        """One two-token matrix per ``vectors`` entry, qids q00.., saved as they are; the path."""
        path = str(tmp_path / "matrices.jsonl")
        rows = [{"qid": f"q{i:02d}", "tokens": ["a", "b"], "context_len": 1, "vectors": np.asarray(v).tolist()}
                for i, v in enumerate(vectors)]
        write_jsonl(path, rows)
        return path

    def test_run_file_equals_reference_byte_for_byte(self, store, tmp_path):
        store, store_path = store
        path = self.matrices(tmp_path, np.random.default_rng(22).standard_normal((20, 2, self.DIM)))
        matrices = load_token_matrices(path)
        out = tmp_path / "run.txt"
        argv = ["search-dense", "--store", store_path, "--matrices", path, "--k", "40", "--output", str(out)]
        assert run_cli(argv) == 0
        expected = tmp_path / "reference.txt"
        runs = {qid: reference_search_dense(store, pool(m), 40) for qid, m in matrices.items()}
        write_run(str(expected), runs, tag="dense")
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "bad,message",
        [
            pytest.param(  # the squared norm of [1e308] * DIM overflows; q09 is on line 10
                np.array([[1e308] * DIM, [-1e308] * DIM]),
                "{path}:10: vectors hold a row with a non-finite squared norm",
                id="pooled-overflow",
            ),
            (np.zeros((2, DIM - 3)), f"q09: query dimension ({DIM - 3},) does not match store dim {DIM}"),
        ],
    )
    def test_bad_query_is_an_error_before_writing(self, store, tmp_path, capsys, bad, message):
        vectors = [np.ones((2, self.DIM))] * 9 + [bad] + [np.ones((2, self.DIM))] * 10
        path = self.matrices(tmp_path, vectors)
        out = tmp_path / "run.txt"
        capsys.readouterr()
        argv = ["search-dense", "--store", store[1], "--matrices", path, "--output", str(out)]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    def test_empty_sessions_file_writes_an_empty_run(self, workspace, tmp_path, capsys):
        sessions = tmp_path / "none.jsonl"
        sessions.write_text("")
        out = tmp_path / "run.txt"
        argv = ["search-dense", "--store", workspace["store"], "--encoder", workspace["encoder"],
                "--sessions", str(sessions), "--output", str(out)]
        assert run_cli(argv) == 0
        assert out.read_bytes() == b""
        assert "wrote 0 results for 0 queries" in capsys.readouterr().out


# Each reader gets one good line, then the bad one, so the error must name line 2.
GOOD_LINES = {
    "corpus": {"id": "p0", "text": "red fox"},
    "sessions": {"session_id": "s", "turns": [{"raw_utterance": "red fox"}]},
    "matrices": {"qid": "q", "tokens": ["fox"], "context_len": 0, "vectors": [[1.0, 2.0]]},
    "queries": {"qid": "q", "text": "fox"},
    "labels": {"qid": "s_1", "rewrite": "fox", "positives": ["p0"], "bm25_pool": [], "teacher_pool": []},
    "teacher": {"query": "fox", "id": "p0", "score": 1.0},
}

BAD_LINES = [
    ("corpus", "[1, 2]"),
    ("corpus", json.dumps({"id": 7, "text": "a"})),
    ("corpus", "{broken"),
    ("sessions", json.dumps([{"session_id": "s"}])),
    ("sessions", json.dumps({"session_id": "t", "turns": ["a string turn"]})),
    ("sessions", json.dumps({"session_id": "t", "turns": [{"raw_utterance": "a", "manual_rewrite": 3}]})),
    ("matrices", json.dumps([1, 2])),
    ("matrices", json.dumps({"qid": "r", "tokens": 5, "context_len": 0, "vectors": [[1.0, 2.0]]})),
    ("matrices", json.dumps({"qid": "r", "tokens": ["a"], "context_len": 0, "vectors": [["x", 2.0]]})),
    ("matrices", json.dumps({"qid": "r", "tokens": ["a", "b"], "context_len": 0.5, "vectors": [[1.0], [2.0]]})),
    ("matrices", json.dumps({**GOOD_LINES["matrices"], "qid": "q 1"})),
    ("queries", json.dumps(["q", "fox"])),
    ("queries", json.dumps({"qid": "r", "text": 5})),
    ("queries", json.dumps({"qid": "q", "text": "again"})),
    ("queries", json.dumps({"qid": "q 1", "text": "fox"})),
    ("labels", json.dumps(["s_1"])),
    ("labels", json.dumps({**GOOD_LINES["labels"], "teacher_pool": ["p0"]})),
    ("labels", json.dumps(GOOD_LINES["labels"])),
    ("labels", json.dumps({**GOOD_LINES["labels"], "qid": "s_2", "positives": "P00C0"})),
    ("labels", json.dumps({**GOOD_LINES["labels"], "qid": "s_2", "bm25_pool": ["p0", 1]})),
    ("labels", json.dumps({**GOOD_LINES["labels"], "qid": "s_2", "positives": []})),
    ("labels", json.dumps({**GOOD_LINES["labels"], "qid": "s_2", "teacher_pool": [{"id": 5, "score": 1.0}]})),
    ("labels", json.dumps({**GOOD_LINES["labels"], "qid": "s_2", "teacher_pool": [{"id": "p0", "score": "nan"}]})),
    ("labels", '{"qid": "s_2", "rewrite": "fox", "positives": ["p0"], "bm25_pool": [], '
               '"teacher_pool": [{"id": "p0", "score": 1e999}]}'),
    ("labels", json.dumps({**GOOD_LINES["labels"], "qid": "s_2", "teacher_pool": [{"id": "p0", "score": True}]})),
    ("labels", json.dumps({**GOOD_LINES["labels"], "qid": "s_2", "teacher_pool": [["p0", 1.0]]})),
    ("teacher", json.dumps([1])),
    ("teacher", json.dumps({"query": "fox", "id": "p0", "score": 2.0})),
    ("teacher", json.dumps({"query": "fox", "id": "p1", "score": "high"})),
    ("teacher", '{"query": "fox", "id": "p1", "score": NaN}'),
    ("teacher", json.dumps({"query": "fox", "id": "p1", "score": "0.5"})),
    ("teacher", json.dumps({"query": "fox", "id": "p1", "score": True})),
    pytest.param("teacher", '{"query": "fox", "id": "p1", "score": 1' + "0" * 400 + "}", id="teacher-huge-int"),
    pytest.param("labels", '{"qid": "s_2", "rewrite": "fox", "positives": ["p0"], "bm25_pool": [], '
                 '"teacher_pool": [{"id": "p0", "score": 1' + "0" * 400 + "}]}", id="labels-huge-int"),
    ("sessions", json.dumps(GOOD_LINES["sessions"])),
    ("corpus", '{"id": "p1", "text": "red \udcff fox"}'),  # written as the invalid UTF-8 byte 0xff
    *((reader, "\udcff") for reader in GOOD_LINES),
]


def pool_line(pool):
    """A labels line whose ``teacher_pool`` is the JSON text ``pool``."""
    return '{"qid": "s_2", "rewrite": "fox", "positives": ["p0"], "bm25_pool": [], "teacher_pool": ' + pool + "}"


def score_row(score):
    """A teacher-table line whose ``score`` is the JSON text ``score``."""
    return '{"query": "fox", "id": "p1", "score": ' + score + "}"


HUGE = "1" + "0" * 400  # an integer too large for a float
NOT_FINITE = "teacher score of {!r} must be a finite number, got {}"
# Malformed teacher pools and teacher-table rows, each with the full text of its error.
TEACHER_FAULTS = [
    ("labels", pool_line("5"), "'int' object is not iterable"),
    ("labels", pool_line("null"), "'NoneType' object is not iterable"),
    ("labels", pool_line('"p0"'), "'teacher_pool' entries must be objects"),
    ("labels", pool_line('{"id": "p0", "score": 1.0}'), "'teacher_pool' entries must be objects"),
    ("labels", pool_line('["p0"]'), "'teacher_pool' entries must be objects"),
    ("labels", pool_line('[["p0", 1.0]]'), "'teacher_pool' entries must be objects"),
    ("labels", pool_line('[{"score": 1.0}]'), "missing field 'id'"),
    ("labels", pool_line('[{"id": "p0"}]'), "missing field 'score'"),
    ("labels", pool_line('[{"id": 5, "score": 1.0}]'), "'id' must be a string, got int"),
    ("labels", pool_line('[{"id": null, "score": 1.0}]'), "'id' must be a string, got NoneType"),
    ("labels", pool_line('[{"id": "p0", "score": "nan"}]'), NOT_FINITE.format("p0", "'nan'")),
    ("labels", pool_line('[{"id": "p0", "score": true}]'), NOT_FINITE.format("p0", "True")),
    ("labels", pool_line('[{"id": "p0", "score": 1e999}]'), NOT_FINITE.format("p0", "inf")),
    ("labels", pool_line('[{"id": "p0", "score": -1e999}]'), NOT_FINITE.format("p0", "-inf")),
    ("labels", pool_line('[{"id": "p0", "score": NaN}]'), NOT_FINITE.format("p0", "nan")),
    pytest.param("labels", pool_line('[{"id": "p0", "score": ' + HUGE + "}]"), NOT_FINITE.format("p0", HUGE),
                 id="labels-huge-int-score"),
    ("labels", pool_line('[{"id": "p0", "score": [1]}]'), NOT_FINITE.format("p0", "[1]")),
    ("labels", pool_line('[{"id": "p0", "score": null}]'), NOT_FINITE.format("p0", "None")),
    ("labels", pool_line('[{"id": "p0", "score": 1.0}, {"id": "p1", "score": "x"}]'), NOT_FINITE.format("p1", "'x'")),
    ("labels", pool_line('[{"id": "p0", "score": 1.0}, {"id": 7}]'), "'id' must be a string, got int"),
    ("labels", pool_line('[{"id": "p0", "score": "x"}, {"id": 7, "score": 1.0}]'), NOT_FINITE.format("p0", "'x'")),
    ("teacher", score_row('"high"'), NOT_FINITE.format("p1", "'high'")),
    ("teacher", score_row("NaN"), NOT_FINITE.format("p1", "nan")),
    pytest.param("teacher", score_row(HUGE), NOT_FINITE.format("p1", HUGE), id="teacher-huge-int-score"),
]


def reader_argv(reader, path, workspace, tmp_path):
    out = ["--output", str(tmp_path / "out")]
    return {
        "corpus": ["index-sparse", "--corpus", path, *out],
        "sessions": ["search-dense", "--store", workspace["store"], "--encoder", workspace["encoder"],
                     "--sessions", path, *out],
        "matrices": ["search-dense", "--store", workspace["store"], "--matrices", path, *out],
        "queries": ["search-sparse", "--index", workspace["index"], "--queries", path, *out],
        "labels": ["train-toy", "--labels", path, "--sessions", workspace["sessions"], "--store", workspace["store"], *out],
        "teacher": ["build-weak-labels", "--index", workspace["index"],
                    "--sessions", workspace["sessions"], "--teacher-scores", path, *out],
    }[reader]


class TestMalformedJsonLines:
    def error_of(self, reader, bad, workspace, tmp_path, capsys):
        """(path, stderr) of a command that reads one good line of ``reader``'s file, then ``bad``."""
        path = str(tmp_path / f"{reader}.jsonl")
        with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(json.dumps(GOOD_LINES[reader]) + "\n" + bad + "\n")
        capsys.readouterr()
        assert run_cli(reader_argv(reader, path, workspace, tmp_path)) == 1
        return path, capsys.readouterr().err

    @pytest.mark.parametrize("reader,bad", BAD_LINES)
    def test_error_names_path_and_line(self, reader, bad, workspace, tmp_path, capsys):
        path, err = self.error_of(reader, bad, workspace, tmp_path, capsys)
        assert err.startswith(f"error: {path}:2: ")

    @pytest.mark.parametrize("reader,bad,message", TEACHER_FAULTS)
    def test_teacher_fault_messages(self, reader, bad, message, workspace, tmp_path, capsys):
        path, err = self.error_of(reader, bad, workspace, tmp_path, capsys)
        assert err == f"error: {path}:2: {message}\n"


class TestConfigErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "{not json",
            json.dumps({"fusion": {"alpha": "x"}}),
            json.dumps({"fusoin": {"alpha": 0.2}}),
            json.dumps({"paths": {"corpuss": "corpus.jsonl"}}),
            json.dumps({"paths": {"corpus": 5}}),
            json.dumps({"paths": []}),
            json.dumps({"bm25": 0.5}),
            json.dumps({"train": {"steps": 1.5}}),
            json.dumps({"train": {"use_soft_labels": "yes"}}),
            json.dumps({"rewrite": {"gamma": -1.0}}),
        ],
    )
    def test_error_names_config_file(self, text, workspace, tmp_path, capsys):
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            fh.write(text)
        capsys.readouterr()
        argv = ["index-sparse", "--config", config_path, "--corpus", workspace["corpus"],
                "--output", str(tmp_path / "idx.bin")]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {config_path}: ")

    def test_integer_too_large_for_a_float_is_refused(self, tmp_path, capsys):
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            fh.write('{"fusion": {"rrf_k": 1' + "0" * 400 + "}}")
        run_path = str(tmp_path / "run.txt")
        write_run(run_path, {"q1": RankedList.from_scores([("d1", 1.0), ("d2", 0.5)])}, "t")
        capsys.readouterr()
        argv = ["fuse-rrf", "--config", config_path, "--runs", run_path, run_path,
                "--output", str(tmp_path / "fused.txt")]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: {config_path}: fusion.rrf_k is too large for a float\n"

    def test_integer_accepted_for_float_setting(self, tmp_path):
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            fh.write(json.dumps({"fusion": {"rrf_k": 30}, "rewrite": {"gamma": 3}}))
        cfg = cli.EngineConfig.from_file(config_path)
        assert cfg.fusion.rrf_k == 30 and cfg.rewrite.gamma == 3


# Each subcommand's options: "flags[:type][=default][ nargs=N][ choices=[...]][ required]".
METRICS = "choices=['ndcg', 'ndcg@3', 'recall']"
COMMAND_OPTIONS = {
    "index-sparse": ["--b:float", "--config", "--corpus", "--k1:float", "--output"],
    "search-sparse": ["--config", "--index", "--k:int=1000", "--output", "--queries", "--tag='sparse'"],
    "search-dense": ["--config", "--encoder", "--k:int=1000", "--matrices", "--output", "--sessions", "--store",
                     "--tag='dense'"],
    "search-hybrid": ["--alpha:float", "--config", "--depth:int=1000", "--encoder", "--gamma:float", "--index",
                      "--k:int=1000", "--matrices", "--output", "--sessions", "--store", "--tag='hybrid'"],
    "rewrite": ["--config", "--encoder", "--gamma:float", "--matrices", "--output", "--sessions"],
    "fuse-rrf": ["--config", "--k:int", "--output", "--rrf-k:float", "--runs nargs=+ required", "--tag='rrf'"],
    "build-weak-labels": ["--config", "--corpus", "--depth:int=1000", "--index", "--output", "--pool-size:int=200",
                          "--sessions", "--store", "--teacher-scores"],
    "train-toy": ["--batch-size:int", "--config", "--corpus", "--hard-negatives nargs=0", "--labels",
                  "--learning-rate --lr:float", "--output", "--seed:int", "--sessions", "--soft-labels nargs=0",
                  "--steps:int", "--store", "--tau:float"],
    "eval": ["--config", "--cutoff:int", f"--metric='ndcg' {METRICS}", "--min-grade:int=2",
             "--per-query=False nargs=0", "--qrels", "--run"],
    "compare": ["--baseline", "--config", "--cutoff:int", f"--metric='ndcg@3' {METRICS}", "--min-grade:int=2",
                "--qrels", "--run"],
    "converse": ["--alpha:float", "--config", "--depth:int=1000", "--encoder", "--gamma:float", "--index",
                 "--k:int=10", "--matrices", "--qid-prefix='turn_'", "--store"],
}


class TestFlagMerge:
    def train_configs(self, workspace, tmp_path, monkeypatch, config, flags):
        """The TrainConfig that train-toy hands to train()."""
        seen = []
        real_train = cli.train

        def spy(encoder, labels, sessions, store, config, **kwargs):
            seen.append(config)
            return real_train(encoder, labels, sessions, store, config, **kwargs)

        monkeypatch.setattr(cli, "train", spy)
        config_path = str(tmp_path / "config.json")
        with open(config_path, "w") as fh:
            fh.write(json.dumps({"train": config}))
        argv = ["train-toy", "--config", config_path, "--labels", workspace["labels_train"],
                "--sessions", workspace["sessions"], "--store", workspace["store"],
                "--output", str(tmp_path / "enc.json"), *flags]
        assert run_cli(argv) == 0
        return seen

    def test_config_true_survives_absent_flags(self, workspace, tmp_path, monkeypatch):
        config = {"steps": 1, "use_soft_labels": True, "use_hard_negatives": True}
        (got,) = self.train_configs(workspace, tmp_path, monkeypatch, config, [])
        assert got.use_soft_labels and got.use_hard_negatives and got.steps == 1

    def test_flags_beat_config(self, workspace, tmp_path, monkeypatch):
        config = {"steps": 1, "seed": 4, "tau": 2.0}
        flags = ["--soft-labels", "--seed", "9", "--steps", "2"]
        (got,) = self.train_configs(workspace, tmp_path, monkeypatch, config, flags)
        assert got.use_soft_labels and not got.use_hard_negatives
        assert (got.seed, got.steps, got.tau) == (9, 2, 2.0)

    def test_k_defaults_per_command(self):
        parser = cli.build_parser()
        assert parser.parse_args(["converse"]).k == 10
        assert parser.parse_args(["search-hybrid"]).k == 1000
        assert parser.parse_args(["search-dense"]).k == 1000
        assert parser.parse_args(["search-sparse"]).k == 1000
        assert parser.parse_args(["fuse-rrf", "--runs", "a"]).k is None

    def test_every_command_keeps_its_options(self):
        def describe(action):
            spec = " ".join(action.option_strings)
            spec += f":{action.type.__name__}" if action.type else ""
            spec += f"={action.default!r}" if action.default is not None else ""
            spec += f" nargs={action.nargs}" if action.nargs is not None else ""
            spec += f" choices={list(action.choices)}" if action.choices else ""
            return spec + (" required" if action.required else "")

        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: sorted(describe(a) for a in p._actions if not isinstance(a, argparse._HelpAction))
            for name, p in sub.choices.items()
        }
        assert got == COMMAND_OPTIONS

    @pytest.mark.parametrize("argv", [["eval", "--k", "5"], ["eval", "--seed", "1"], ["converse", "--output", "x"]])
    def test_flags_a_command_does_not_read_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err


class TestHybridSearchRoute:
    def test_run_file_matches_library(self, workspace, planted, tmp_path):
        from cqe.core import RewriteConfig
        from cqe.dense import load_embeddings
        from cqe.fusion import hybrid_search
        from cqe.sparse import load_index
        from cqe.trainer import ToyQueryEncoder

        out = str(tmp_path / "hybrid.txt")
        assert run_cli(["search-hybrid", "--index", workspace["index"], "--store", workspace["store"],
                        "--encoder", workspace["encoder"], "--sessions", workspace["sessions"],
                        "--alpha", "0.4", "--depth", "50", "--k", "7", "--output", out]) == 0
        runs = read_run(out)
        index, store = load_index(workspace["index"]), load_embeddings(workspace["store"])
        encoder = ToyQueryEncoder.load(workspace["encoder"])
        rewrite, fusion = RewriteConfig(gamma=RewriteConfig.HYBRID_GAMMA), FusionConfig(alpha=0.4)
        qids = [(s, i) for s in planted.sessions for i in range(len(s.turns))]
        assert set(runs) == {s.qid(i) for s, i in qids}
        for session, i in qids:
            _, want = hybrid_search(index, store, encoder.encode(*session.tokens_for_turn(i)), rewrite, fusion, 50, 7)
            got = runs[session.qid(i)]
            assert got.docids() == want.docids()
            assert [e.score for e in got] == [e.score for e in want]


class TestLabellingInputs:
    def test_pool_size_must_be_positive(self, workspace, tmp_path, capsys):
        argv = ["build-weak-labels", "--index", workspace["index"],
                "--store", workspace["store"], "--sessions", workspace["sessions"],
                "--pool-size", "-1", "--output", str(tmp_path / "labels.jsonl")]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == "error: pool-size must be >= 1, got -1\n"

    def test_passage_absent_from_store_ends_labelling(self, planted, workspace, tmp_path, capsys):
        store, manifest = planted.store, str(tmp_path / "store.json")
        save_embeddings(PassageEmbeddingStore(store.ids[1:], store.vectors[1:]), manifest)  # the first row dropped
        argv = ["build-weak-labels", "--index", workspace["index"],
                "--store", manifest, "--sessions", workspace["sessions"], "--output", str(tmp_path / "labels.jsonl")]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: unknown passage id {store.ids[0]!r}\n"

    def test_passage_absent_from_store_ends_soft_label_training(self, planted, workspace, tmp_path, capsys):
        dropped = load_weak_labels(workspace["labels_train"])[0].positives[0]
        store, manifest = planted.store, str(tmp_path / "store.json")
        keep = [i for i, pid in enumerate(store.ids) if pid != dropped]
        save_embeddings(PassageEmbeddingStore([store.ids[i] for i in keep], store.vectors[keep]), manifest)
        argv = ["train-toy", "--labels", workspace["labels_train"], "--sessions", workspace["sessions"],
                "--store", manifest, "--steps", "2", "--soft-labels", "--output", str(tmp_path / "encoder.json")]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: passage store is missing labeled ids: [{dropped!r}]\n"

    def test_pair_absent_from_teacher_table_ends_labelling(self, planted, planted_index, workspace, tmp_path, capsys):
        table = tmp_path / "teacher.jsonl"
        table.write_text(json.dumps({"query": "no such rewrite", "id": planted.store.ids[0], "score": 1.0}) + "\n")
        argv = ["build-weak-labels", "--index", workspace["index"], "--sessions", workspace["sessions"],
                "--teacher-scores", str(table), "--depth", "20", "--output", str(tmp_path / "labels.jsonl")]
        rewrite = planted.sessions[0].turns[0].manual_rewrite
        first = search_sparse(planted_index, tokenize(rewrite), 20).docids()[0]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: no teacher score for query {rewrite!r} and passage {first!r}\n"
        assert list(tmp_path.iterdir()) == [table]

    def train_toy_error(self, workspace, labels, tmp_path, capsys):
        """The stderr of a failing train-toy over ``labels``, which leaves its output directory empty."""
        out = tmp_path / "out"
        out.mkdir()
        argv = ["train-toy", "--labels", labels, "--sessions", workspace["sessions"], "--store", workspace["store"],
                "--steps", "2", "--output", str(out / "encoder.json")]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert list(out.iterdir()) == []
        return capsys.readouterr().err

    def test_labels_of_an_unknown_turn_end_training(self, workspace, tmp_path, capsys):
        labels = load_weak_labels(workspace["labels_train"])
        labels[-1].qid = "nosuch_1"
        path = str(tmp_path / "labels.jsonl")
        save_weak_labels(labels, path)
        err = self.train_toy_error(workspace, path, tmp_path, capsys)
        assert err == "error: labels refer to unknown turn 'nosuch_1'\n"

    def test_pools_of_only_positives_end_training(self, workspace, tmp_path, capsys):
        path = str(tmp_path / "labels.jsonl")
        argv = ["build-weak-labels", "--index", workspace["index"],
                "--store", workspace["store"], "--sessions", workspace["sessions"], "--depth", "3", "--output", path]
        assert run_cli(argv) == 0
        assert all(len(t.bm25_pool) == len(t.teacher_pool) == 3 for t in load_weak_labels(path))
        err = self.train_toy_error(workspace, path, tmp_path, capsys)
        assert err == "error: turn 's0_1' has no eligible negatives\n"

    def test_labelling_and_training_read_no_corpus(self, planted, workspace, tmp_path, monkeypatch, capsys):
        """With no corpus anywhere, both commands write the bytes they write when given --corpus."""
        monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
        paths = write_planted_dataset(planted, str(tmp_path))
        index, store, sessions = str(tmp_path / "index.bin"), paths["store"], paths["sessions"]
        assert run_cli(["index-sparse", "--corpus", paths["corpus"], "--output", index]) == 0
        os.remove(paths["corpus"])
        outputs = {}
        # perfbench's pipeline argv passes the hidden --corpus: still accepted, never read (ROADMAP item 2)
        for name, corpus in (("none", []), ("given", ["--corpus", workspace["corpus"]])):
            labels = tmp_path / f"labels-{name}.jsonl"
            argv = ["build-weak-labels", *corpus, "--index", index, "--store", store, "--sessions", sessions]
            assert run_cli([*argv, "--output", str(labels)]) == 0
            outputs[name] = [labels.read_bytes()]
            for mode, flags in (("plain", []), ("soft", ["--soft-labels", "--hard-negatives"])):
                encoder = tmp_path / f"{mode}-{name}"
                argv = ["train-toy", *corpus, "--labels", str(labels), "--sessions", sessions, "--store", store,
                        "--seed", "0", "--steps", "40", *flags, "--output", f"{encoder}.json"]
                assert run_cli(argv) == 0
                outputs[name] += [pathlib.Path(f"{encoder}{ext}").read_bytes()
                                  for ext in (".json", ".emb.f32", ".proj.f32", ".vocab")]
        assert outputs["none"] == outputs["given"] and len(outputs["none"]) == 9
        for command in ("build-weak-labels", "train-toy"):
            capsys.readouterr()
            with pytest.raises(SystemExit):
                run_cli([command, "--help"])
            assert "--corpus" not in capsys.readouterr().out


# Store and encoder manifests with their sidecar files; each case corrupts
# one file and returns the path the error must start with.
SIZE_FIELD = {"store": "count", "encoder": "vocab_size"}
BLOB = {"store": ".f32", "encoder": ".emb.f32"}  # the encoder's first row is <unk>
LINE_FILE = {"store": ".ids", "encoder": ".vocab"}


def rewrite_manifest(manifest, text):
    with open(manifest, "w") as fh:
        fh.write(text + "\n")
    return f"{manifest}:1: "


def corrupt_manifest(case, kind, manifest):
    base = manifest[: -len(".json")]
    with open(manifest) as fh:
        declared = json.load(fh)
    if case == "non-object":
        return rewrite_manifest(manifest, "[1]")
    if case == "bad json":
        return rewrite_manifest(manifest, "{broken")
    if case == "missing size":
        del declared[SIZE_FIELD[kind]]
        return rewrite_manifest(manifest, json.dumps(declared))
    if case == "string size":
        return rewrite_manifest(manifest, json.dumps({**declared, "dim": str(declared["dim"])}))
    if case == "nan blob":
        blob = np.fromfile(base + BLOB[kind], dtype="<f4")
        blob[0] = np.nan
        blob.tofile(base + BLOB[kind])
        return f"{manifest}: "
    if case == "bad utf-8":
        with open(base + LINE_FILE[kind], "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[1] = b"\xff"
        with open(base + LINE_FILE[kind], "wb") as fh:
            fh.write(b"\n".join(lines))
        return f"{base}{LINE_FILE[kind]}: invalid UTF-8"
    assert case == "duplicate line"
    with open(base + LINE_FILE[kind]) as fh:
        lines = fh.read().splitlines()
    lines[1] = lines[0]
    with open(base + LINE_FILE[kind], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return f"{manifest}: " if kind == "store" else f"{base}.vocab: "


def copy_models(workspace, tmp_path):
    """Copies of the workspace store and encoder in ``tmp_path``: {"store": manifest, "encoder": manifest}."""
    copies = {}
    for name in ("store", "encoder"):
        base = workspace[name][: -len(".json")]
        for suffix in (".json", ".f32", ".ids", ".emb.f32", ".proj.f32", ".vocab"):
            if os.path.exists(base + suffix):
                shutil.copy(base + suffix, tmp_path)
        copies[name] = str(tmp_path / os.path.basename(workspace[name]))
    return copies


def search_dense_err(workspace, tmp_path, copies, capsys):
    """stderr of a search-dense over ``copies`` that must exit 1 and write no run."""
    argv = ["search-dense", "--store", copies["store"], "--encoder", copies["encoder"],
            "--sessions", workspace["sessions"], "--output", str(tmp_path / "run.txt")]
    capsys.readouterr()
    assert run_cli(argv) == 1
    assert not os.path.exists(tmp_path / "run.txt")
    return capsys.readouterr().err


class TestManifestErrors:
    @pytest.mark.parametrize("kind", ["store", "encoder"])
    @pytest.mark.parametrize(
        "case",
        ["non-object", "bad json", "missing size", "string size", "nan blob", "bad utf-8", "duplicate line"],
    )
    def test_error_names_the_file(self, case, kind, workspace, tmp_path, capsys):
        copies = copy_models(workspace, tmp_path)
        expected = corrupt_manifest(case, kind, copies[kind])
        assert search_dense_err(workspace, tmp_path, copies, capsys).startswith(f"error: {expected}")

    @pytest.mark.parametrize("change", [-1, 1])
    @pytest.mark.parametrize("kind,blob", [("store", ".f32"), ("encoder", ".emb.f32"), ("encoder", ".proj.f32")])
    def test_blob_one_float_off_is_refused(self, kind, blob, change, workspace, tmp_path, capsys):
        copies = copy_models(workspace, tmp_path)
        with open(copies[kind]) as fh:
            declared = json.load(fh)
        rows = declared["dim"] if blob == ".proj.f32" else declared[SIZE_FIELD[kind]]
        path = copies[kind][: -len(".json")] + blob
        floats = np.fromfile(path, dtype="<f4")
        assert floats.size == rows * declared["dim"]
        np.resize(floats, floats.size + change).tofile(path)
        err = search_dense_err(workspace, tmp_path, copies, capsys)
        assert err == f"error: {path}: holds {floats.size + change} floats, manifest declares {rows}x{declared['dim']}\n"

    def test_nan_in_the_last_read_block_is_refused(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dense, "BLOCK_BYTES", 64)  # 16 floats per block
        copies = copy_models(workspace, tmp_path)
        path = copies["store"][: -len(".json")] + ".f32"
        floats = np.fromfile(path, dtype="<f4")
        assert floats.size > 3 * 16
        floats[-1] = np.nan
        floats.tofile(path)
        err = search_dense_err(workspace, tmp_path, copies, capsys)
        assert err == f"error: {copies['store']}: vectors contain non-finite values\n"


def test_cli_import_leaves_scipy_out():
    # cqe does not depend on scipy, which would cost every command most of its start-up.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, cqe.cli; print('scipy.special' in sys.modules, 'scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
