"""Alternating pairs of perfbench runs of two checkouts: medians, win counts, output digests.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR [--workload dense-batch-100k ...] --pairs 10 --seconds 30

Each pair runs ``perfbench/run.py`` once in each checkout, from that
checkout's root, so each side imports its own ``src/`` and keeps its own
input cache. Pair 1 runs PARENT_DIR first, pair 2 CHANGE_DIR first, and so
on, so drift over a session (a busy neighbour, a warming page cache) falls
on both sides alike. ``--workload`` may repeat; by default every workload
of CHANGE_DIR's ``BENCHMARK.json`` is measured, and each pair runs them all
in turn, so drift falls on every workload alike too. Per workload, for each
end-to-end metric of that ``BENCHMARK.json`` it prints both medians, the
parent's quartiles, a verdict (see :func:`verdict`) and the number of pairs
in which the change was better, then whether ``sha256_output`` matched in
every pair. Exits 1 if a run fails, reports an incorrect result or a failed
operation, if any pair's digests differ, or if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in checkout ``root``: its last JSON line plus the report's digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: perfbench {workload} exited with code {proc.returncode}\n{proc.stderr}")
    return parse(lines)


def parse(lines: list[str]) -> dict:
    """The result object of perfbench's output ``lines``, with ``sha256_output`` from its ``report`` line."""
    result = json.loads(lines[-1])
    reports = [json.loads(line[len("report "):]) for line in lines if line.startswith("report ")]
    result["sha256_output"] = reports[-1]["sha256_output"] if reports else None
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``; a single value is all three."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (statistics.median(values),) * 3


def spread(values: list[float]) -> float:
    """The q1..q3 distance of ``values`` relative to their median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf if q3 > q1 else 0.0


def verdict(values: list[tuple[float, float]], higher: bool, bound: float | None) -> str:
    """One metric's (parent, change) ``values``, one pair each, judged against its relative ``bound``.

    ``worse``: the change's median is worse than the parent's by more than the bound. ``gain``: the change is
    better in at least 9 of 10 pairs (ties count for neither) and the medians differ by more than the parent's
    q1..q3 distance. ``unresolved``: either side's q1..q3 spread is wider than the bound, and some change run is
    no better than some parent run. ``level``: anything else.
    """
    if higher:  # judged on negated values, so that lower is better throughout
        values = [(-p, -c) for p, c in values]
    parents, changes = [p for p, _ in values], [c for _, c in values]
    before, after = statistics.median(parents), statistics.median(changes)
    bound = math.inf if bound is None else bound
    if after - before > bound * abs(before):
        return "worse"
    q1, _, q3 = quartiles(parents)
    if 10 * sum(c < p for p, c in values) >= 9 * len(values) and before - after > q3 - q1:
        return "gain"
    if max(spread(parents), spread(changes)) > bound and max(changes) >= min(parents):
        return "unresolved"
    return "level"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> tuple[list[str], bool]:
    """Table lines for (parent, change) result ``pairs`` over the declared ``metrics``, and whether all was well:
    digests identical, runs sound and no verdict ``worse``."""
    worse = False
    lines = [f"{'metric':16s} {'parent':>12s} {'change':>12s} {'change/parent':>14s} {'parent q1..q3':>24s} "
             f"{'verdict':>10s}  better"]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                  if name in p["metrics"] and name in c["metrics"]]
        if not values:
            continue
        before, after = statistics.median(v[0] for v in values), statistics.median(v[1] for v in values)
        q1, _, q3 = quartiles([v[0] for v in values])
        wins = sum((c > p) if higher else (c < p) for p, c in values)
        ratio = f"{after / before:.4f}" if before else "-"
        judged = verdict(values, higher, metric.get("bound"))
        worse |= judged == "worse"
        lines.append(f"{name:16s} {before:12.6g} {after:12.6g} {ratio:>14s} {f'{q1:.6g}..{q3:.6g}':>24s} "
                     f"{judged:>10s}  {wins} of {len(values)}")
    same = [p["sha256_output"] == c["sha256_output"] for p, c in pairs]
    lines.append(f"sha256_output identical in {sum(same)} of {len(pairs)} pairs")
    sound = [r["correct"] and not r["failed"] for pair in pairs for r in pair]
    lines.append(f"runs correct with no failed operation: {sum(sound)} of {len(sound)}")
    return lines, all(same) and all(sound) and not worse


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout measured as the baseline")
    ap.add_argument("change", help="checkout measured against it")
    ap.add_argument("--workload", action="append", help="may repeat; default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    pairs: dict[str, list[tuple[dict, dict]]] = {workload: [] for workload in workloads}
    for i in range(args.pairs):
        order = [args.parent, args.change] if i % 2 == 0 else [args.change, args.parent]
        for workload in workloads:
            try:
                first, second = (run_once(root, workload, args.seed, args.seconds) for root in order)
            except RuntimeError as exc:
                print(f"pairs: {exc}", file=sys.stderr)
                return 1
            pairs[workload].append((first, second) if i % 2 == 0 else (second, first))
            wall = [r["metrics"].get("wall_s", {}).get("value") for r in pairs[workload][-1]]
            print(f"pair {i + 1}/{args.pairs} {workload} ({'parent' if i % 2 == 0 else 'change'} first): "
                  f"wall_s {wall[0]} -> {wall[1]}", flush=True)
    ok = True
    for workload in workloads:
        lines, sound = summarize(pairs[workload], bench["end_to_end"])
        print(f"{workload} seed {args.seed}, {args.pairs} alternating pairs of --seconds {args.seconds:g}")
        print("\n".join(lines))
        ok &= sound
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
