"""Run one benchmark workload in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --data DIR --work DIR \
        --seconds S --trace 0|1 --seed N --result FILE [--spans FILE]

Every workload calls ``cqe.cli.main`` in process with the argv a user
would type; the program sees only the generated files in ``--data``.

- ``converse-100k``: one client in a closed loop drives ``cqe converse``
  through 13 sessions of 4 turns; the next utterance is handed over only
  when the previous turn's results are printed. Sparse search dominates.
- ``dense-batch-100k``: ``cqe search-dense`` at k=1000 over 120 turns; dense
  search does nearly all the work and sparse search none.
- ``pipeline-10k``: index-sparse, build-weak-labels (depth 1000, cosine
  teacher), train-toy (600 steps, soft labels, hard negatives),
  search-hybrid and eval over 20 sessions; the only workload that builds,
  trains and writes.

A run repeats one pass of its workload while another pass still fits in
``--seconds`` and reports medians over the passes, which keeps the
figures steady on a shared machine; ``queries_per_s`` is the turns of a
pass over its median timed phase (``wall_s``). Each pass measures set-up too: the
converse start-up until the first stdin read, search-dense over zero
turns, or index-sparse. Untraced (``--trace 0``), the outputs are then
checked against the oracles. Traced (``--trace 1``), untraced and traced
passes alternate; spans around cqe's functions give the per-layer
figures and the two kinds of pass give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import re
import resource
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from tracing import Tracer, median, percentile  # noqa: E402

SHAPE_OF = {"converse-100k": "100k", "dense-batch-100k": "100k", "pipeline-10k": "10k"}
# Enough turns that two traced passes give a p90 with ten samples beyond it.
SESSIONS_USED = {"converse-100k": 13, "dense-batch-100k": 30, "pipeline-10k": 20}
GAMMA = 12.0  # cqe's default hybrid rewrite threshold
ALPHA = 0.1  # cqe's default fusion weight
DEPTH = 1000
TRAIN_STEPS = 600
POOL_SIZE = 200  # build-weak-labels' default pool size
GATE_TURNS = 4  # turns checked per oracle, one per turn position
DENSE_SETUP_REPEATS = 5  # zero-turn search-dense runs per pass

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "ndcg_at_3": "ndcg",
    "peak_rss_mb": "MB",
}

CLI_STEPS = ["converse", "search-dense", "index-sparse", "build-weak-labels", "train-toy", "search-hybrid", "eval"]

PER_LAYER = {
    "sparse.search_sparse.self_ms_p50": "ms",
    "sparse.search_sparse.self_ms_p90": "ms",
    "sparse.search_sparse.calls": "count",
    "sparse.postings_scanned": "count",
    "ranking.from_scores.ms_p50": "ms",
    "ranking.from_scores.kept_ratio": "ratio",
    "dense.search_dense.self_ms_p50": "ms",
    "dense.search_dense.self_ms_p90": "ms",
    "dense.search_dense.calls": "count",
    "dense.rows_scored": "count",
    "dense.bytes_read": "bytes",
    "sparse.load_index.s": "s",
    "dense.load_embeddings.s": "s",
    "trainer.ToyQueryEncoder.load.s": "s",
    "sparse.build_index.s": "s",
    "sparse.save_index.s": "s",
    "corpus.load_corpus.s": "s",
    "corpus.tokenize.calls": "count",
    "sparse.index_bytes": "bytes",
    "trainer.build_weak_labels.s": "s",
    "trainer.CosineTeacher.score.calls": "count",
    "trainer.teacher_unique_ratio": "ratio",
    "trainer.batch_gradients.ms_p50": "ms",
    "trainer.train.s": "s",
    "core.decontextualize.us": "us",
    "core.pool.us": "us",
    "core.context_kept_ratio": "ratio",
    "core.bag_len_mean": "count",
    "trainer.ToyQueryEncoder.encode.us": "us",
    "fusion.hybrid_combine.ms_p50": "ms",
    "fusion.union_size_mean": "count",
    "fusion.min_substituted_ratio": "ratio",
    "evaluation.write_run.s": "s",
    "evaluation.read_run.s": "s",
    "evaluation.ndcg.ms": "ms",
    **{f"cli.{step}.s": "s" for step in CLI_STEPS},
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


def p90(samples) -> float:
    """p90 with at least ten samples beyond it; the slowest sample when there are too few."""
    try:
        return percentile(samples, 90, min_beyond=10)
    except ValueError:
        return max(samples)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Inputs, outcomes and the in-process CLI
# ---------------------------------------------------------------------------


class Inputs:
    """Paths of one generated dataset and the turns this workload plays."""

    def __init__(self, data: str, work: str, workload: str):
        self.work = work
        self.corpus = os.path.join(data, "corpus.jsonl")
        self.index = os.path.join(data, "index.bin")
        self.store = os.path.join(data, "store.json")
        self.encoder = os.path.join(data, "encoder.json")
        self.qrels = os.path.join(data, "qrels.txt")
        with open(os.path.join(data, "meta.json"), encoding="utf-8") as fh:
            self.meta = json.load(fh)
        with open(os.path.join(data, "sessions.jsonl"), encoding="utf-8") as fh:
            lines = fh.readlines()[: SESSIONS_USED[workload]]
        self.sessions_path = os.path.join(work, "sessions.jsonl")
        with open(self.sessions_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        self.no_sessions = os.path.join(work, "no-sessions.jsonl")
        open(self.no_sessions, "w").close()
        # (qid, context words, query words, manual rewrite) per turn, in order.
        self.turns: list[tuple[str, list[str], list[str], str]] = []
        self.turns_per_session = 0
        for obj in map(json.loads, lines):
            history: list[str] = []
            for i, turn in enumerate(obj["turns"], start=1):
                words = turn["raw_utterance"].split()
                self.turns.append((f"{obj['session_id']}_{i}", list(history), words, turn["manual_rewrite"]))
                history.extend(words)
            self.turns_per_session = len(obj["turns"])


class Outcome:
    """Operations attempted and failed, with a line saying why for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")
            print(f"FAILED {what}: {problem}", file=sys.stderr)
        return problem is None


def run_cli(outcome: Outcome, argv: list[str], stdin=None, tracer: Tracer | None = None):
    """cqe.cli.main(argv) with stdout captured; returns (output, seconds, ok)."""
    from cqe import cli

    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = stdin if stdin is not None else io.StringIO("")
    try:
        with contextlib.redirect_stdout(out):
            if tracer is not None:
                tracer.request = tracer.request or argv[0]
                span = tracer.begin(f"cli.{argv[0]}")
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # the run goes on; the failure is counted and shown
                traceback.print_exc()
                code = "exception"
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end(span)
    finally:
        sys.stdin = old_stdin
    ok = outcome.record(f"cqe {argv[0]}", None if code == 0 else f"exit code {code}")
    return out.getvalue(), seconds, ok


class Pass:
    """What one pass measured and produced: set-up, the timed phase, an output digest."""

    def __init__(self, setup_s: float, wall_s: float, digest: str, **extra):
        self.setup_s, self.wall_s, self.digest, self.extra = setup_s, wall_s, digest, extra


# ---------------------------------------------------------------------------
# Tracing: what to wrap and what to count
# ---------------------------------------------------------------------------


def tracer_for(inputs: Inputs) -> tuple[Tracer, list[tuple]]:
    """A tracer and the (target, name, observe, count_only) specs to install for each pass."""
    tr = Tracer()
    c = tr.counters
    df = inputs.meta["df"]

    def sparse_obs(a, result):
        c["sparse.postings_scanned"] += sum(df.get(t, 0) for t in set(a["query_tokens"]))

    def dense_obs(a, result):
        store = a["store"]
        c["dense.rows_scored"] += store.count
        c["dense.bytes_read"] += store.count * store.dim * 4  # the f32 store is read once per query

    def ranking_obs(a, result):
        c["ranking.items"] += len(a["scored"])
        c["ranking.kept"] += len(result)

    def rewrite_obs(a, result):
        m = a["matrix"]
        c["core.bags"] += 1
        c["core.bag_tokens"] += len(result)
        c["core.context_tokens"] += m.context_len
        c["core.context_kept"] += max(0, len(result) - m.query_len)

    def fusion_obs(a, result):
        c["fusion.calls"] += 1
        c["fusion.union"] += len(result)
        # The output is the union; a document missing from one list had its score substituted.
        c["fusion.substituted"] += 2 * len(result) - len(a["sparse"]) - len(a["dense"])

    pairs: set = set()

    def teacher_obs(args, result):
        key = (tr.root(), args[1], args[2].id)  # distinct within one pass
        if key not in pairs:
            pairs.add(key)
            c["trainer.teacher_pairs"] += 1

    specs = [
        ("cqe.sparse:search_sparse", "sparse.search_sparse", sparse_obs, False),
        ("cqe.sparse:load_index", "sparse.load_index", None, False),
        ("cqe.sparse:build_index", "sparse.build_index", None, False),
        ("cqe.sparse:save_index", "sparse.save_index", None, False),
        ("cqe.dense:search_dense", "dense.search_dense", dense_obs, False),
        ("cqe.dense:load_embeddings", "dense.load_embeddings", None, False),
        ("cqe.ranking:RankedList.from_scores", "ranking.from_scores", ranking_obs, False),
        ("cqe.core:decontextualize", "core.decontextualize", rewrite_obs, False),
        ("cqe.core:pool", "core.pool", None, False),
        ("cqe.corpus:load_corpus", "corpus.load_corpus", None, False),
        ("cqe.fusion:hybrid_combine", "fusion.hybrid_combine", fusion_obs, False),
        ("cqe.trainer:build_weak_labels", "trainer.build_weak_labels", None, False),
        ("cqe.trainer:batch_gradients", "trainer.batch_gradients", None, False),
        ("cqe.trainer:train", "trainer.train", None, False),
        ("cqe.trainer:ToyQueryEncoder.load", "trainer.ToyQueryEncoder.load", None, False),
        ("cqe.trainer:ToyQueryEncoder.encode", "trainer.ToyQueryEncoder.encode", None, False),
        ("cqe.evaluation:write_run", "evaluation.write_run", None, False),
        ("cqe.evaluation:read_run", "evaluation.read_run", None, False),
        ("cqe.evaluation:ndcg", "evaluation.ndcg", None, False),
        # Called thousands of times per pass: counted, no span.
        ("cqe.corpus:tokenize", "corpus.tokenize", None, True),
        ("cqe.trainer:CosineTeacher.score", "trainer.CosineTeacher.score", teacher_obs, True),
    ]
    return tr, specs


def traced_pass(tr: Tracer, specs, one_pass) -> Pass:
    for target, name, observe, count_only in specs:
        tr.wrap(target, name, observe, count_only=count_only)
    tr.request = None
    try:
        with tr.span("bench.pass"):
            return one_pass(tr)
    finally:
        tr.restore()


def layer_metrics(tr: Tracer, untraced: list[Pass], traced: list[Pass], index_bytes: int) -> dict:
    st = tr.by_name()
    c = tr.counters
    passes = st["bench.pass"]["root"]

    def xs(name: str, kind: str = "dur") -> list[float]:
        return st[name][kind] if name in st else []

    def stat(name: str, fn, scale: float, kind: str = "dur") -> float:
        values = xs(name, kind)
        return fn(values) * scale if values else 0.0

    def per_pass(name: str) -> float:
        """Median over traced passes of the seconds spent in ``name``."""
        total: dict[int, float] = defaultdict(float)
        for d, root in zip(xs(name), xs(name, "root")):
            total[root] += d
        return median([total[r] for r in passes])

    def count(name: str) -> float:
        return c[name] / len(passes)

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    m = {
        "sparse.search_sparse.self_ms_p50": stat("sparse.search_sparse", median, 1e3, "self"),
        "sparse.search_sparse.self_ms_p90": stat("sparse.search_sparse", p90, 1e3, "self"),
        "sparse.search_sparse.calls": count("sparse.search_sparse.calls"),
        "sparse.postings_scanned": count("sparse.postings_scanned"),
        "ranking.from_scores.ms_p50": stat("ranking.from_scores", median, 1e3),
        "ranking.from_scores.kept_ratio": ratio("ranking.kept", "ranking.items"),
        "dense.search_dense.self_ms_p50": stat("dense.search_dense", median, 1e3, "self"),
        "dense.search_dense.self_ms_p90": stat("dense.search_dense", p90, 1e3, "self"),
        "dense.search_dense.calls": count("dense.search_dense.calls"),
        "dense.rows_scored": count("dense.rows_scored"),
        "dense.bytes_read": count("dense.bytes_read"),
        "sparse.index_bytes": index_bytes,
        "corpus.tokenize.calls": count("corpus.tokenize.calls"),
        "trainer.CosineTeacher.score.calls": count("trainer.CosineTeacher.score.calls"),
        "trainer.teacher_unique_ratio": ratio("trainer.teacher_pairs", "trainer.CosineTeacher.score.calls"),
        "trainer.batch_gradients.ms_p50": stat("trainer.batch_gradients", median, 1e3),
        "core.decontextualize.us": stat("core.decontextualize", median, 1e6),
        "core.pool.us": stat("core.pool", median, 1e6),
        "core.context_kept_ratio": ratio("core.context_kept", "core.context_tokens"),
        "core.bag_len_mean": ratio("core.bag_tokens", "core.bags"),
        "trainer.ToyQueryEncoder.encode.us": stat("trainer.ToyQueryEncoder.encode", median, 1e6),
        "fusion.hybrid_combine.ms_p50": stat("fusion.hybrid_combine", median, 1e3),
        "fusion.union_size_mean": ratio("fusion.union", "fusion.calls"),
        "fusion.min_substituted_ratio": ratio("fusion.substituted", "fusion.union"),
        "evaluation.ndcg.ms": per_pass("evaluation.ndcg") * 1e3,
        "trace.overhead_ratio": median([p.wall_s for p in traced]) / median([p.wall_s for p in untraced]) - 1.0,
    }
    for name in [
        "sparse.load_index", "dense.load_embeddings", "trainer.ToyQueryEncoder.load",
        "sparse.build_index", "sparse.save_index", "corpus.load_corpus",
        "trainer.build_weak_labels", "trainer.train", "evaluation.write_run", "evaluation.read_run",
    ] + [f"cli.{step}" for step in CLI_STEPS]:
        m[f"{name}.s"] = per_pass(name)
    # Time inside a pass that no cqe function span covers: CLI glue, printing, the pass loop.
    glue = sum(sum(xs(n, "self")) for n in st if n.startswith("cli.") or n == "bench.pass")
    m["trace.unattributed_ratio"] = glue / sum(xs("bench.pass"))
    return {k: float(m[k]) for k in PER_LAYER}


# ---------------------------------------------------------------------------
# Oracles over the generated inputs
# ---------------------------------------------------------------------------


class Reference:
    """The store and an encoder read with numpy, and on first use the index."""

    def __init__(self, inputs: Inputs, encoder_path: str | None = None):
        self.inputs = inputs
        with open(inputs.store, encoding="utf-8") as fh:
            manifest = json.load(fh)
        base = inputs.store[: -len(".json")]
        vectors = np.fromfile(base + ".f32", dtype="<f4").reshape(manifest["count"], manifest["dim"])
        self.vectors = vectors.astype(np.float64)
        with open(base + ".ids", encoding="utf-8") as fh:
            self.ids = fh.read().splitlines()
        encoder_path = encoder_path or inputs.encoder
        with open(encoder_path, encoding="utf-8") as fh:
            dim = json.load(fh)["dim"]
        ebase = encoder_path[: -len(".json")]
        self.embedding = np.fromfile(ebase + ".emb.f32", dtype="<f4").reshape(-1, dim).astype(np.float64)
        self.projection = np.fromfile(ebase + ".proj.f32", dtype="<f4").reshape(dim, dim).astype(np.float64)
        with open(ebase + ".vocab", encoding="utf-8") as fh:
            self.vocab = {t: i for i, t in enumerate(fh.read().splitlines())}

    @functools.cached_property
    def index(self):
        from cqe.sparse import load_index

        return load_index(self.inputs.index)

    @functools.cached_property
    def doc_terms(self) -> list[tuple[str, set[str]]]:
        # Generated passages are lowercase alphanumeric words joined by single
        # spaces, so splitting on spaces yields exactly cqe's tokens.
        with open(self.inputs.corpus, encoding="utf-8") as fh:
            return [(obj["id"], set(obj["text"].split())) for obj in map(json.loads, fh)]

    def query(self, context: list[str], words: list[str]) -> tuple[np.ndarray, list[str]]:
        """Pooled query vector (mean anchored at row 0) and the rewritten bag."""
        idx = [self.vocab.get(w, self.vocab["<unk>"]) for w in context + words]
        rows = self.embedding[idx] @ self.projection
        pooled = rows[0] + (rows - rows[0]).mean(axis=0)
        norms = np.linalg.norm(rows[: len(context)], axis=1)
        return pooled, list(words) + [w for w, n in zip(context, norms) if n >= GAMMA]

    def sparse(self, bag: list[str]) -> oracle.Scored:
        terms = set(bag)
        return oracle.sparse_scores(self.index, bag, [d for d, ts in self.doc_terms if ts & terms])

    def dense(self, pooled: np.ndarray) -> oracle.Scored:
        return oracle.dense_scores(self.vectors, self.ids, pooled)

    def hybrid(self, context: list[str], words: list[str]) -> tuple[oracle.Scored, list[str]]:
        pooled, bag = self.query(context, words)
        sp = oracle.ordered(self.sparse(bag), DEPTH) if bag else []
        ds = oracle.ordered(self.dense(pooled), DEPTH)
        return oracle.hybrid_scores(sp, ds, ALPHA), bag


def gate_turns(inputs: Inputs, seed: int) -> list[int]:
    """GATE_TURNS turn indices, one per turn position, from sessions picked by seed."""
    rng = np.random.default_rng(seed)
    per = inputs.turns_per_session
    sessions = len(inputs.turns) // per
    return [int(rng.integers(sessions)) * per + p % per for p in range(GATE_TURNS)]


def parse_run(path: str) -> dict[str, list[tuple[str, float]]]:
    runs: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, _, docid, _, score, _ = line.split()
            runs.setdefault(qid, []).append((docid, float(score)))
    return runs


def ndcg3(runs: dict[str, list[tuple[str, float]]], qrels_path: str) -> float:
    from cqe.evaluation import ndcg, read_qrels
    from cqe.ranking import RankedEntry, RankedList

    ranked = {
        q: RankedList([RankedEntry(d, s, r) for r, (d, s) in enumerate(entries, start=1)])
        for q, entries in runs.items()
    }
    return ndcg(ranked, read_qrels(qrels_path), 3).mean


# ---------------------------------------------------------------------------
# converse-100k
# ---------------------------------------------------------------------------


class ClosedLoopStdin:
    """stdin for ``cqe converse`` that hands over one utterance at a time.

    converse asks for the next line only after it printed the previous
    turn's results, so the time from handing over an utterance to the
    next request is that turn's latency as the user sees it. The script
    plays every session once, with ``reset`` after each.
    """

    def __init__(self, inputs: Inputs, tracer: Tracer | None = None):
        self.script: list[tuple[str | None, str]] = []
        for qid, _, words, _ in inputs.turns:
            if self.script and qid.endswith("_1"):
                self.script.append((None, "reset"))
            self.script.append((qid, " ".join(words)))
        self.script.append((None, "reset"))
        self.tracer = tracer
        self.first_read: float | None = None
        self.last_read = 0.0
        self.latencies: list[float] = []
        self._lines = iter(self.script)
        self._pending: float | None = None

    def __iter__(self):
        return self

    def __next__(self) -> str:
        now = self.last_read = time.perf_counter()
        if self.first_read is None:
            self.first_read = now
        if self._pending is not None:
            self.latencies.append(now - self._pending)
            self._pending = None
        qid, line = next(self._lines)
        if qid is not None:
            self._pending = now
            if self.tracer is not None:
                self.tracer.request = qid
        return line + "\n"

    def readline(self) -> str:
        try:
            return next(self)
        except StopIteration:
            return ""


def converse_pass(inputs: Inputs, outcome: Outcome, tracer: Tracer | None = None) -> Pass:
    argv = ["converse", "--index", inputs.index, "--store", inputs.store, "--encoder", inputs.encoder, "--k", "10"]
    stdin = ClosedLoopStdin(inputs, tracer)
    start = time.perf_counter()
    text, _, _ = run_cli(outcome, argv, stdin, tracer)
    outcome.attempted += len(stdin.latencies)
    first = stdin.first_read or start
    wall = stdin.last_read - first
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Pass(first - start, wall, digest, text=text, latencies=stdin.latencies)


_TURN_RE = re.compile(r"^turn \d+ \(")
_RESULT_RE = re.compile(r"^  (\d+)\. (\S+) (\S+)$")


def parse_converse(text: str) -> list[tuple[list[str], list[tuple[str, float]]]]:
    """(rewritten bag, top-k) per turn, in order."""
    turns: list[tuple[list[str], list[tuple[str, float]]]] = []
    in_results = False
    for line in text.splitlines():
        if _TURN_RE.match(line):
            turns.append(([], []))
            in_results = False
        elif line.startswith("rewrite:") and turns:
            turns[-1][0].extend(line[len("rewrite:") :].split())
        elif line == "results:":
            in_results = True
        elif in_results and (m := _RESULT_RE.match(line)):
            turns[-1][1].append((m.group(2), float(m.group(3))))
    return turns


def converse_gate(inputs: Inputs, outcome: Outcome, passes: list[Pass], seed: int, report: dict) -> float:
    latencies = [x for p in passes for x in p.extra["latencies"]]
    report["turn_samples"] = len(latencies)
    report["turn_p50_ms"] = median(latencies) * 1e3
    try:
        report["turn_p90_ms"] = percentile(latencies, 90, min_beyond=10) * 1e3
    except ValueError as exc:
        report["turn_p90_ms"] = f"not reported: {exc}"
    turns = parse_converse(passes[-1].extra["text"])
    if not outcome.record("converse output", None if len(turns) == len(inputs.turns)
                          else f"{len(turns)} turns printed, {len(inputs.turns)} sent"):
        return 0.0
    ref = Reference(inputs)
    for i in gate_turns(inputs, seed):
        qid, context, words, _ = inputs.turns[i]
        want, bag = ref.hybrid(context, words)
        got_bag, got = turns[i]
        problem = None if got_bag == bag else f"rewrite {got_bag} != oracle {bag}"
        outcome.record(f"hybrid oracle {qid}", problem or oracle.compare(got, want, 10, tol=1e-6))
    return ndcg3({inputs.turns[i][0]: results for i, (_, results) in enumerate(turns)}, inputs.qrels)


# ---------------------------------------------------------------------------
# dense-batch-100k
# ---------------------------------------------------------------------------


def dense_pass(inputs: Inputs, outcome: Outcome, tracer: Tracer | None = None) -> Pass:
    def argv(sessions: str, output: str) -> list[str]:
        return ["search-dense", "--store", inputs.store, "--encoder", inputs.encoder,
                "--sessions", sessions, "--k", str(DEPTH), "--output", output]

    setup = 0.0
    if tracer is None:  # set-up is an end-to-end figure only; at ~0.1 s it needs several samples
        none = os.path.join(inputs.work, "none.txt")
        setup = median([run_cli(outcome, argv(inputs.no_sessions, none))[1] for _ in range(DENSE_SETUP_REPEATS)])
    run_path = os.path.join(inputs.work, "dense-run.txt")
    _, wall, _ = run_cli(outcome, argv(inputs.sessions_path, run_path), tracer=tracer)
    return Pass(setup, wall, sha256_file(run_path), run=run_path)


def dense_gate(inputs: Inputs, outcome: Outcome, passes: list[Pass], seed: int, report: dict) -> float:
    runs = parse_run(passes[-1].extra["run"])
    ref = Reference(inputs)
    for i in gate_turns(inputs, seed):
        qid, context, words, _ = inputs.turns[i]
        pooled, _ = ref.query(context, words)
        outcome.record(f"dense oracle {qid}", oracle.compare(runs.get(qid, []), ref.dense(pooled), DEPTH, tol=1e-9))
    return ndcg3(runs, inputs.qrels)


# ---------------------------------------------------------------------------
# pipeline-10k
# ---------------------------------------------------------------------------


def pipeline_steps(inputs: Inputs) -> dict[str, list[str]]:
    w = inputs.work
    return {
        "index-sparse": ["index-sparse", "--corpus", inputs.corpus, "--output", f"{w}/index.bin"],
        "build-weak-labels": [
            "build-weak-labels", "--corpus", inputs.corpus, "--index", f"{w}/index.bin", "--store", inputs.store,
            "--sessions", inputs.sessions_path, "--depth", str(DEPTH), "--output", f"{w}/labels.jsonl",
        ],
        "train-toy": [
            "train-toy", "--labels", f"{w}/labels.jsonl", "--sessions", inputs.sessions_path, "--corpus", inputs.corpus,
            "--store", inputs.store, "--steps", str(TRAIN_STEPS), "--seed", "0", "--soft-labels", "--hard-negatives",
            "--output", f"{w}/encoder.json",
        ],
        "search-hybrid": [
            "search-hybrid", "--index", f"{w}/index.bin", "--store", inputs.store, "--encoder", f"{w}/encoder.json",
            "--sessions", inputs.sessions_path, "--depth", str(DEPTH), "--k", str(DEPTH), "--output", f"{w}/run.txt",
        ],
        "eval": ["eval", "--run", f"{w}/run.txt", "--qrels", inputs.qrels, "--metric", "ndcg@3"],
    }


def pipeline_pass(inputs: Inputs, outcome: Outcome, tracer: Tracer | None = None) -> Pass:
    times, outputs = {}, {}
    for name, argv in pipeline_steps(inputs).items():
        if tracer is not None:
            tracer.request = name
        outputs[name], times[name], ok = run_cli(outcome, argv, tracer=tracer)
        if not ok:
            break
    w = inputs.work
    digest = " ".join(f"{f}:{sha256_file(f'{w}/{f}')}" for f in ("index.bin", "labels.jsonl", "encoder.emb.f32", "run.txt")
                      if os.path.exists(f"{w}/{f}"))
    setup = times.pop("index-sparse", 0.0)
    return Pass(setup, sum(times.values()), digest, steps=times, eval=outputs.get("eval", ""))


def pipeline_gate(inputs: Inputs, outcome: Outcome, passes: list[Pass], seed: int, report: dict) -> float:
    w = inputs.work
    steps = [p.extra["steps"] for p in passes]
    report["step_s"] = {name: median([s.get(name, 0.0) for s in steps]) for name in steps[0]}
    report["train_steps_per_s"] = TRAIN_STEPS / report["step_s"]["train-toy"]
    outcome.record("index-sparse output", None if sha256_file(f"{w}/index.bin") == sha256_file(inputs.index)
                   else "differs from the generator's index of the same corpus")
    runs = parse_run(f"{w}/run.txt")
    score = ndcg3(runs, inputs.qrels)
    printed = re.search(r"mean nDCG@3 (\S+)", passes[-1].extra["eval"])
    shown = printed.group(1) if printed else None
    outcome.record("eval output", None if shown == f"{score:.3f}" else f"printed {shown}, oracle {score:.3f}")
    ref = Reference(inputs, encoder_path=f"{w}/encoder.json")
    with open(f"{w}/labels.jsonl", encoding="utf-8") as fh:
        labels = {obj["qid"]: obj for obj in map(json.loads, fh)}
    from cqe.corpus import tokenize

    for i in gate_turns(inputs, seed):
        qid, context, words, rewrite = inputs.turns[i]
        pool = [(d, None) for d in labels[qid]["bm25_pool"]] if qid in labels else []
        outcome.record(f"sparse oracle {qid}", oracle.compare(pool, ref.sparse(tokenize(rewrite)), POOL_SIZE, tol=1e-9))
        want, _ = ref.hybrid(context, words)
        outcome.record(f"hybrid oracle {qid}", oracle.compare(runs.get(qid, []), want, DEPTH, tol=1e-9))
    return score


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


WORKLOADS = {
    "converse-100k": (converse_pass, converse_gate),
    "dense-batch-100k": (dense_pass, dense_gate),
    "pipeline-10k": (pipeline_pass, pipeline_gate),
}


def repeat(seconds: float, one_pass, minimum: int = 1) -> list:
    """Run passes while another one still fits in ``seconds``, and at least ``minimum``."""
    done: list = []
    start = time.perf_counter()
    while len(done) < minimum or (time.perf_counter() - start) * (1 + 1 / len(done)) <= seconds:
        done.append(one_pass(len(done)))
    return done


def same_outputs(outcome: Outcome, passes: list[Pass]) -> None:
    digests = {p.digest for p in passes}
    outcome.record("outputs identical across passes", None if len(digests) == 1 else f"{len(digests)} different outputs")


def run(workload: str, inputs: Inputs, outcome: Outcome, seconds: float, trace: bool, seed: int):
    one_pass, gate = WORKLOADS[workload]
    report: dict = {"turns_per_pass": len(inputs.turns)}
    if trace:
        tr, specs = tracer_for(inputs)

        def alternate(i: int) -> tuple[bool, Pass]:
            if i % 2:
                return False, one_pass(inputs, outcome)
            return True, traced_pass(tr, specs, lambda t: one_pass(inputs, outcome, t))

        done = repeat(seconds, alternate, minimum=2)
        untraced = [p for is_traced, p in done if not is_traced]
        traced = [p for is_traced, p in done if is_traced]
        same_outputs(outcome, untraced + traced)
        index = {"converse-100k": inputs.index, "pipeline-10k": f"{inputs.work}/index.bin"}.get(workload)
        index_bytes = os.path.getsize(index) if index else 0
        report.update(untraced_passes=len(untraced), traced_passes=len(traced), spans=len(tr.spans))
        return layer_metrics(tr, untraced, traced, index_bytes), tr, report

    passes: list[Pass] = repeat(seconds, lambda i: one_pass(inputs, outcome))
    rss = peak_rss_mb()
    same_outputs(outcome, passes)
    report.update(pass_s=[p.wall_s for p in passes], setup_samples=[p.setup_s for p in passes],
                  queries_per_run=len(inputs.turns) * len(passes), sha256_output=passes[-1].digest)
    metrics = {
        "setup_s": median([p.setup_s for p in passes]),
        "wall_s": median([p.wall_s for p in passes]),
        "queries_per_s": len(inputs.turns) / median([p.wall_s for p in passes]),
        "ndcg_at_3": gate(inputs, outcome, passes, seed, report),
        "peak_rss_mb": rss,
    }
    return metrics, None, report


def facts(inputs: Inputs) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        **{k: v for k, v in inputs.meta.items() if k != "df"},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    args = ap.parse_args(argv)

    import cqe

    inputs = Inputs(args.data, args.work, args.workload)
    outcome = Outcome()
    metrics, tracer, report = run(args.workload, inputs, outcome, args.seconds, bool(args.trace), args.seed)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "report": {"workload": args.workload, "seed": args.seed, "cqe": os.path.dirname(cqe.__file__),
                   "facts": facts(inputs), **report, "failures": outcome.failures},
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
