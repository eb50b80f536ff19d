"""numpy is cqe's only runtime dependency: the library imports nothing else outside the standard library."""

import ast
import glob
import os
import subprocess
import sys

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
