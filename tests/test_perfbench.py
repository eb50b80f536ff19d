"""The benchmark harness's self-tests and a smoke run of every workload, against this checkout's cqe.

The harness wraps and rebuilds cqe's public functions and ranked lists, and
drives the CLI with the argv a user would type and parses what it prints, so
a change to any of these that breaks its tracer, its oracles or its parsers
fails here before a benchmark run does.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


def run(script, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", script), *map(str, args)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=300,
    )


def test_perfbench_selftests_pass():
    proc = run("selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-tests passed" in proc.stdout


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    pytest.importorskip("scipy", reason="perfbench/gen.py needs scipy")
    out = tmp_path_factory.mktemp("perfbench") / "tiny-s1"
    proc = run("gen.py", "--shape", "tiny", "--seed", 1, "--out", out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_oracles_on_tiny_inputs(workload, tiny_inputs, tmp_path):
    """Traced too: the tracer wraps functions that hybrid search calls on its worker thread."""
    for trace in (0, 1):
        work, result = tmp_path / f"work{trace}", tmp_path / f"result{trace}.json"
        work.mkdir()
        proc = run("workload.py", "--workload", workload, "--data", tiny_inputs, "--work", work,
                   "--seconds", 0, "--seed", 1, "--trace", trace, "--result", result)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        got = json.loads(result.read_text())
        assert (got["correct"], got["failed"]) == (True, 0), got["report"]["failures"]
        assert not [line for line in proc.stderr.splitlines() if line.startswith("trace:")], proc.stderr


# Targets that no longer resolve, each with the reason it is left as it is. The benchmark refresh
# (ROADMAP item 2) renames this one to `CosineTeacher.scores` when it next changes the harness.
STALE_TRACER_TARGETS = {"cqe.trainer:CosineTeacher.score": "renamed to CosineTeacher.scores"}

RESOLVE_TARGETS = """
import json, sys, types
sys.path.insert(0, "perfbench")
import tracing, workload
_, specs = workload.tracer_for(types.SimpleNamespace(meta={"df": {}}))
print(json.dumps([target for target, *_ in specs if tracing._resolve(target) is None]))
"""


def test_every_tracer_target_resolves():
    """A rename in cqe fails here, where the tracer would silently read 0 for that layer."""
    proc = subprocess.run([sys.executable, "-c", RESOLVE_TARGETS], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(json.loads(proc.stdout)) == sorted(STALE_TRACER_TARGETS)
