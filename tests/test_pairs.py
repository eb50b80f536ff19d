"""tools/pairs.py: alternating order, medians, win counts and digest checks, over stub checkouts."""

import importlib.util
import json
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "tools", "pairs.py"))
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "queries_per_s", "better": "higher"}]

# A stand-in for perfbench/run.py: logs its checkout's name and workload, then prints a report
# line and the final JSON line; wall_s is read from the checkout's wall.txt, one value per run.
STUB = textwrap.dedent("""
    import json, os, sys
    name = os.path.basename(os.getcwd())
    with open("../log.txt", "a") as fh:
        fh.write(name + " " + sys.argv[sys.argv.index("--workload") + 1] + "\\n")
    walls = open("wall.txt").read().split()
    n = sum(1 for line in open("../log.txt") if line.split()[0] == name)
    wall = float(walls[n - 1])
    print("report " + json.dumps({"sha256_output": open("digest.txt").read().strip()}))
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "queries_per_s": {"value": 100 / wall, "unit": "1/s"}}
    print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
""")


def checkout(tmp_path, name, walls, digest, metrics=METRICS, workloads=("w",)):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB)
    (root / "wall.txt").write_text(" ".join(map(str, walls)))
    (root / "digest.txt").write_text(digest)
    bench = {"workloads": [{"name": w} for w in workloads], "end_to_end": metrics}
    (root / "BENCHMARK.json").write_text(json.dumps(bench))
    return str(root)


def test_pairs_alternate_order_and_report_medians_and_wins(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", [1.0, 1.2, 1.1], "abc")
    change = checkout(tmp_path, "change", [0.9, 1.3, 0.8], "abc")
    assert pairs.main([parent, change, "--workload", "w", "--pairs", "3", "--seconds", "1"]) == 0
    log = [line.split()[0] for line in (tmp_path / "log.txt").read_text().splitlines()]
    assert log == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    wall = next(line for line in out.splitlines() if line.startswith("wall_s "))
    assert wall.split()[1:3] == ["1.1", "0.9"] and wall.endswith("2 of 3")
    qps = next(line for line in out.splitlines() if line.startswith("queries_per_s "))
    assert qps.endswith("2 of 3")
    assert "sha256_output identical in 3 of 3 pairs" in out


def test_pairs_fail_when_a_digest_differs(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", [1.0, 1.0], "abc")
    change = checkout(tmp_path, "change", [1.0, 1.0], "abd")
    assert pairs.main([parent, change, "--workload", "w", "--pairs", "2", "--seconds", "1"]) == 1
    assert "sha256_output identical in 0 of 2 pairs" in capsys.readouterr().out


def test_parse_reads_the_last_json_line_and_the_report_digest():
    lines = ["w seed 1 trace 0: correct", 'report {"sha256_output": "ff", "seed": 1}',
             '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}']
    assert pairs.parse(lines) == {"correct": True, "attempted": 1, "failed": 0, "metrics": {}, "sha256_output": "ff"}


def test_verdicts_follow_wins_quartiles_and_bounds():
    # (parent, change) per pair, lower is better
    gain = [(10.0 + 0.1 * i, 9.0 + 0.1 * i) for i in range(10)]
    assert pairs.verdict(gain, higher=False, bound=0.1) == "gain"
    assert pairs.verdict([(-p, -c) for p, c in gain], higher=True, bound=0.1) == "gain"
    # wins 8 of 10: not a gain, however far apart the medians
    eight = gain[:8] + [(10.0, 10.5), (10.0, 10.5)]
    assert pairs.verdict(eight, higher=False, bound=0.1) == "level"
    # wins every pair, but by less than the parent's q1..q3 distance
    close = [(10.0 + i, 9.9 + i) for i in range(10)]
    assert pairs.verdict(close, higher=False, bound=1.0) == "level"
    # median 20% worse, beyond a 10% bound; within a 25% one
    worse = [(10.0, 12.0)] * 10
    assert pairs.verdict(worse, higher=False, bound=0.1) == "worse"
    assert pairs.verdict(worse, higher=False, bound=0.25) == "level"
    assert pairs.verdict([(c, p) for p, c in worse], higher=True, bound=0.1) == "worse"
    # parent runs spread 10..19: a q1..q3 distance wider than a 10% bound
    wide = [(10.0 + i, 10.0 + (i + 5) % 10) for i in range(10)]
    assert pairs.verdict(wide, higher=False, bound=0.1) == "unresolved"
    assert pairs.verdict(wide, higher=False, bound=None) == "level"
    # wide spreads, but every change run beats every parent run
    apart = [(20.0 + 2 * i, 10.0 + 0.5 * i) for i in range(10)]
    assert pairs.verdict(apart, higher=False, bound=0.1) == "gain"
    assert pairs.verdict([(20.0 + 2 * i, 19.0 + 0.1 * i) for i in range(10)], False, 0.1) == "level"


def test_pairs_print_a_verdict_per_metric(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", [1.0] * 10, "abc")
    change = checkout(tmp_path, "change", [0.5] * 10, "abc")
    assert pairs.main([parent, change, "--workload", "w", "--pairs", "10", "--seconds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert next(line for line in out if line.startswith("metric ")).split()[-2:] == ["verdict", "better"]
    for name in ("wall_s ", "queries_per_s "):
        assert next(line for line in out if line.startswith(name)).split()[-4:] == ["gain", "10", "of", "10"]


def test_pairs_interleave_every_declared_workload_with_a_table_each(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", [1.0, 2.0, 1.0, 2.0], "abc", workloads=("a", "b"))
    change = checkout(tmp_path, "change", [0.9, 1.8, 0.9, 1.8], "abc", workloads=("a", "b"))
    assert pairs.main([parent, change, "--pairs", "2", "--seconds", "1"]) == 0
    log = (tmp_path / "log.txt").read_text().splitlines()
    assert log == ["parent a", "change a", "parent b", "change b", "change a", "parent a", "change b", "parent b"]
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out if " alternating pairs " in line] == ["a", "b"]
    walls = [line.split()[1:3] for line in out if line.startswith("wall_s ")]
    assert walls == [["1", "0.9"], ["2", "1.8"]]

    (tmp_path / "log.txt").unlink()
    assert pairs.main([parent, change, "--workload", "b", "--pairs", "2", "--seconds", "1"]) == 0
    assert (tmp_path / "log.txt").read_text().split()[1::2] == ["b"] * 4


def test_pairs_fail_when_a_verdict_is_worse(tmp_path, capsys):
    bounded = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    parent = checkout(tmp_path, "parent", [1.0] * 3, "abc", metrics=bounded)
    change = checkout(tmp_path, "change", [1.5] * 3, "abc", metrics=bounded)
    assert pairs.main([parent, change, "--pairs", "3", "--seconds", "1"]) == 1
    out = capsys.readouterr().out
    assert next(line for line in out.splitlines() if line.startswith("wall_s ")).split()[-4] == "worse"
    assert "sha256_output identical in 3 of 3 pairs" in out
