"""numpy is cqe's only runtime dependency: the library imports nothing else outside the standard library."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

from cqe.core import save_token_matrices
from cqe.corpus import tokenize
from cqe.sparse import build_index, save_index
from cqe.synth import write_planted_dataset
from cqe.trainer import ToyQueryEncoder

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_library_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "cqe"}
    outside = []
    for path in sorted(glob.glob(os.path.join(SRC, "cqe", "*.py"))):
        for node in ast.walk(ast.parse(open(path, encoding="utf-8").read(), path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{os.path.basename(path)}:{node.lineno}: {name}"
                        for name in names if name.partition(".")[0] not in allowed]
    assert outside == []


def test_compare_runs_without_scipy(tmp_path):
    qrels, run_a, run_b = tmp_path / "qrels.txt", tmp_path / "a.txt", tmp_path / "b.txt"
    qrels.write_text("".join(f"q{i} 0 d{i} 2\n" for i in range(4)))
    run_a.write_text("".join(f"q{i} Q0 d{i} 1 1.0 a\n" for i in range(4)))
    # The baseline ranks the relevant passage 1st, 2nd, 3rd and 3rd: the differences are unequal,
    # so the t-test reaches the incomplete beta function.
    docs = {i: [*(f"x{j}" for j in range(rank - 1)), f"d{i}"] for i, rank in enumerate([1, 2, 3, 3])}
    run_b.write_text("".join(f"q{i} Q0 {doc} {r} {9 - r}.0 b\n" for i in docs for r, doc in enumerate(docs[i], 1)))
    code = (
        "import sys\nfrom cqe import cli\n"
        f"rc = cli.main(['compare', '--run', {str(run_a)!r}, '--baseline', {str(run_b)!r}, '--qrels', {str(qrels)!r}])\n"
        "print(rc, 'scipy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert "p = " in proc.stdout


# One CLI run in a fresh interpreter; the last line it prints: the exit code, whether
# concurrent.futures was imported, and the live Python thread count.
RUN_AND_COUNT = """
import json, sys, threading
from cqe import cli
rc = cli.main(json.loads(sys.argv[1]))
print(rc, "concurrent.futures" in sys.modules, threading.active_count())
"""


@pytest.fixture(scope="module")
def cli_inputs(planted, tmp_path_factory):
    """The planted dataset's files, its index, and token matrices for two converse turns."""
    root = tmp_path_factory.mktemp("threads")
    paths = write_planted_dataset(planted, str(root))
    paths["index"], paths["matrices"] = str(root / "index.bin"), str(root / "matrices.jsonl")
    save_index(build_index(planted.corpus), paths["index"])
    vocab = [tok for s in planted.sessions for t in s.turns for tok in tokenize(t.raw_utterance)]
    encoder = ToyQueryEncoder.create(vocab, dim=planted.store.dim, seed=3)
    save_token_matrices({"turn_1": encoder.encode([], ["topic0", "overview"]),
                         "turn_2": encoder.encode(["topic0", "overview"], ["why", "change"])},
                        paths["matrices"])
    return paths


def run_and_count(argv, stdin=""):
    proc = subprocess.run([sys.executable, "-c", RUN_AND_COUNT, json.dumps(argv)], input=stdin,
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_a_command_that_never_fuses_starts_no_thread(cli_inputs, tmp_path):
    argv = ["search-dense", "--store", cli_inputs["store"], "--matrices", cli_inputs["matrices"],
            "--k", "5", "--output", str(tmp_path / "run.txt")]
    assert run_and_count(argv) == ["0", "False", "1"]


def test_converse_starts_one_worker_thread(cli_inputs):
    argv = ["converse", "--index", cli_inputs["index"], "--store", cli_inputs["store"],
            "--matrices", cli_inputs["matrices"], "--k", "3"]
    assert run_and_count(argv, "topic0 overview\nwhy change\nexit\n") == ["0", "True", "2"]
