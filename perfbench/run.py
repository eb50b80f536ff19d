"""cqe benchmark: seeded inputs, three workloads, oracle-checked outputs.

    python3 perfbench/run.py --workload converse-100k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cqe is imported from ``src/``.
The inputs for (shape, seed) are generated once by ``gen.py`` in a
process of their own and cached under ``perfbench/.cache``; generation
counts toward no metric. Each workload then runs in a fresh interpreter
(``workload.py``) so that ``peak_rss_mb`` is that workload's alone, with
BLAS pinned to one thread.

Output: human-readable lines, a ``report`` line (machine facts, input
shape, sha256 of every output for byte-for-byte diffs between commits,
and the workload-specific figures turn_p50_ms, turn_p90_ms and
train_steps_per_s), then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(HERE, ".cache")
KEEP_CACHED = 4  # datasets kept on disk; a 100k one takes about 100 MB
BLAS_THREADS = "1"  # steady timings on a shared machine; at most nproc
TIME_LIMIT_S = 170

sys.path.insert(0, HERE)
from workload import SHAPE_OF, WORKLOADS  # noqa: E402


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def dataset(shape: str, seed: int, env: dict[str, str], timeout: float) -> str:
    """Directory of the generated inputs for (shape, seed), generating them if needed."""
    path = os.path.join(CACHE, f"{shape}-s{seed}")
    if os.path.exists(os.path.join(path, "meta.json")):
        os.utime(path)
        return path
    os.makedirs(CACHE, exist_ok=True)
    cached = sorted(
        (os.path.join(CACHE, d) for d in os.listdir(CACHE)), key=os.path.getmtime, reverse=True
    )
    for old in cached[KEEP_CACHED - 1 :]:
        shutil.rmtree(old, ignore_errors=True)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--shape", shape, "--seed", str(seed), "--out", tmp],
            env=env, check=True, timeout=timeout,
        )
        os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def show(result: dict, trace: int) -> None:
    report = result["report"]
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"{report['workload']} seed {report['seed']} trace {trace}: {status}, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name in ("turn_p50_ms", "turn_p90_ms", "train_steps_per_s"):
        if name in report:
            value = report[name]
            print(f"  {name:36s} {value:.6g}" if isinstance(value, float) else f"  {name:36s} {value}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("report " + json.dumps(report, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cqe", "cli.py")):
        return fail(f"no cqe sources under {os.path.join(root, 'src')}; run from the repository root")
    env = child_env(root)
    try:
        data = dataset(SHAPE_OF[args.workload], args.seed, env, TIME_LIMIT_S)
    except (subprocess.SubprocessError, OSError) as exc:
        return fail(f"input generation failed: {exc}")

    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    spans = os.path.join(HERE, ".traces", f"{args.workload}-s{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
             "--data", data, "--work", work, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--seed", str(args.seed), "--result", result_path, "--spans", spans],
            env=env, timeout=max(30.0, TIME_LIMIT_S - (time.monotonic() - start)),
        )
        if proc.returncode != 0 or not os.path.exists(result_path):
            return fail(f"workload process exited with code {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        return fail("workload process timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    show(result, args.trace)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
