"""Command-line front end for the retrieval engine.

Subcommands mirror the experimental workflow: index-sparse, search-sparse,
search-dense, search-hybrid, rewrite, fuse-rrf, build-weak-labels,
train-toy, eval, compare, and an interactive converse REPL. Settings come
from a JSON config file (--config or the CQE_CONFIG environment variable)
with command-line flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (
    RewriteConfig,
    TokenEmbeddingMatrix,
    decontextualize,
    load_sessions,
    load_token_matrices,
    pool,
    token_norm_report,
)
from .corpus import check_id, load_corpus, read_jsonl, str_fields, tokenize, unique, write_jsonl
from .dense import load_embeddings, search_dense_many
from .evaluation import ndcg, paired_t_test, read_qrels, read_run, recall_at, win_tie, write_run
from .fusion import FusionConfig, hybrid_search, rrf
from .sparse import BM25Config, build_index, load_index, save_index, search_sparse
from .trainer import (
    CosineTeacher,
    TableTeacher,
    ToyQueryEncoder,
    TrainConfig,
    build_weak_labels,
    load_weak_labels,
    save_weak_labels,
    train,
)

ENV_CONFIG = "CQE_CONFIG"
_PATHS = ("corpus", "sparse_index", "dense_store", "query_matrices", "qrels")
_SECTIONS = ("bm25", "rewrite", "hybrid_rewrite", "fusion", "train")


@dataclass
class EngineConfig:
    """Engine-wide paths and per-module defaults."""

    corpus: str | None = None
    sparse_index: str | None = None
    dense_store: str | None = None
    query_matrices: str | None = None
    qrels: str | None = None
    bm25: BM25Config = field(default_factory=BM25Config)
    rewrite: RewriteConfig = field(default_factory=RewriteConfig)
    hybrid_rewrite: RewriteConfig = field(
        default_factory=lambda: RewriteConfig(gamma=RewriteConfig.HYBRID_GAMMA)
    )
    fusion: FusionConfig = field(default_factory=FusionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def from_file(cls, path: str) -> EngineConfig:
        """The defaults overridden by a JSON config file; every problem names ``path``."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = _known(json.load(fh), ("paths", *_SECTIONS), "sections")
            paths = _known(raw.get("paths", {}), _PATHS, "paths")
            str_fields(paths, *paths)
            cfg = cls()
            sections = {n: _section(getattr(cfg, n), raw[n], n) for n in _SECTIONS if n in raw}
            return replace(cfg, **paths, **sections)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _known(values, names, what: str) -> dict:
    if not isinstance(values, dict):
        raise TypeError(f"expected a JSON object, got {type(values).__name__}")
    unknown = set(values) - set(names)
    if unknown:
        raise ValueError(f"unknown {what} {sorted(unknown)}")
    return values


def _section(base, values, name: str):
    """``base`` with one config-file section's settings, each of its default's type.

    An integer is taken for a float setting and converted, so one too large
    for a float is refused here, not where the setting is first used."""
    settings = {}
    for key, value in _known(values, [f.name for f in fields(base)], f"{name} settings").items():
        want = type(getattr(base, key))
        if type(value) is not want and not (want is float and type(value) is int):
            raise TypeError(f"{name}.{key} must be {want.__name__}, got {value!r}")
        try:
            settings[key] = want(value)
        except OverflowError:
            raise ValueError(f"{name}.{key} is too large for a float") from None
    return replace(base, **settings)


def _merge(base, args):
    """``base`` with each field replaced by the same-named flag, where that flag was given."""
    given = {f.name: getattr(args, f.name, None) for f in fields(base)}
    return replace(base, **{name: value for name, value in given.items() if value is not None})


def _resolve(args) -> EngineConfig:
    """The config file (``--config``, ``$CQE_CONFIG`` or the defaults) with every given flag merged in."""
    path = args.config or os.environ.get(ENV_CONFIG)
    if path and not os.path.exists(path):
        raise ValueError(f"config file {path!r} does not exist")
    cfg = _merge(EngineConfig.from_file(path) if path else EngineConfig(), args)
    return replace(cfg, **{name: _merge(getattr(cfg, name), args) for name in _SECTIONS})


def _input_path(path: str | None, name: str) -> str:
    if not path:
        raise ValueError(f"no {name} path given (flag or config)")
    if not os.path.exists(path):
        raise ValueError(f"{name} path {path!r} does not exist")
    return path


def _output_path(path: str | None, name: str) -> str:
    if not path:
        raise ValueError(f"no {name} output path given")
    return path


def _load_text_queries(path: str) -> dict[str, str]:
    """Read {"qid", "text"} JSON-lines."""
    seen: set[str] = set()

    def record(obj: dict) -> tuple[str, str]:
        qid, text = str_fields(obj, "qid", "text")
        return unique(check_id(qid, "qid"), seen, "qid"), text

    return dict(read_jsonl(path, record))


def _query_source(args, cfg: EngineConfig, dim: int | None = None):
    """(the ``--matrices`` file's {qid: matrix}, or None for an ``--encoder``; ``turn(qid, context, query)``, one turn's
    matrix): the command's query turns, refused before any search where their dimension is not ``dim``, the store's."""
    if args.encoder:
        encoder = ToyQueryEncoder.load(path := _input_path(args.encoder, "encoder"))
        if dim not in (None, encoder.dim):
            raise ValueError(f"{path}: encoder dim {encoder.dim} does not match store dim {dim}")
        return None, lambda qid, context, query: encoder.encode(context, query)
    matrices = load_token_matrices(path := _input_path(cfg.query_matrices, "query matrices"))
    for qid, matrix in matrices.items():
        if dim not in (None, matrix.dim):
            raise ValueError(f"{qid}: query dimension ({matrix.dim},) does not match store dim {dim}")

    def turn(qid: str, context: list[str], query: list[str]) -> TokenEmbeddingMatrix:
        if qid not in matrices:
            raise ValueError(f"{path}: no token matrix for turn {qid!r}")
        return matrices[qid]

    return matrices, turn


def _query_matrices(args, cfg: EngineConfig, dim: int | None = None) -> dict[str, TokenEmbeddingMatrix]:
    """Every turn of the ``--matrices`` file, or of ``--sessions`` through the ``--encoder``."""
    matrices, turn = _query_source(args, cfg, dim)
    if matrices is None:
        sessions = load_sessions(_input_path(args.sessions, "sessions"))
        turns = ((s.qid(i), *s.tokens_for_turn(i)) for s in sessions for i in range(len(s.turns)))
        matrices = {qid: turn(qid, context, query) for qid, context, query in turns if query}
    return matrices


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed flags and the config they resolve to
# ---------------------------------------------------------------------------


def _cmd_index_sparse(args, cfg: EngineConfig) -> int:
    index = build_index(load_corpus(_input_path(cfg.corpus, "corpus")), cfg.bm25)
    out = _output_path(cfg.sparse_index, "index")
    save_index(index, out)
    print(f"indexed {index.doc_count} passages, {index.term_count} terms -> {out}")
    return 0


def _write_runs(args, runs: dict) -> int:
    out = _output_path(args.output, "run")
    write_run(out, runs, tag=args.tag)
    print(f"wrote {sum(len(r) for r in runs.values())} results for {len(runs)} queries -> {out}")
    return 0


def _cmd_search_sparse(args, cfg: EngineConfig) -> int:
    index = load_index(_input_path(cfg.sparse_index, "index"))
    queries = _load_text_queries(_input_path(args.queries, "queries"))
    runs = {qid: search_sparse(index, tokenize(text), args.k) for qid, text in queries.items()}
    return _write_runs(args, runs)


def _cmd_search_dense(args, cfg: EngineConfig) -> int:
    store = load_embeddings(_input_path(cfg.dense_store, "dense store"))
    matrices = _query_matrices(args, cfg, store.dim)
    queries = np.reshape([pool(m) for m in matrices.values()], (len(matrices), store.dim))
    return _write_runs(args, dict(zip(matrices, search_dense_many(store, queries, args.k))))


def _cmd_search_hybrid(args, cfg: EngineConfig) -> int:
    index = load_index(_input_path(cfg.sparse_index, "index"))
    store = load_embeddings(_input_path(cfg.dense_store, "dense store"), index.table)
    matrices = _query_matrices(args, cfg, store.dim)
    runs = {
        qid: hybrid_search(index, store, m, cfg.hybrid_rewrite, cfg.fusion, args.depth, args.k)[1]
        for qid, m in matrices.items()
    }
    return _write_runs(args, runs)


def _cmd_rewrite(args, cfg: EngineConfig) -> int:
    matrices = _query_matrices(args, cfg)
    out = _output_path(args.output, "rewrites")
    rows = ({"qid": qid, "text": " ".join(decontextualize(m, cfg.rewrite))} for qid, m in matrices.items())
    write_jsonl(out, rows)
    print(f"rewrote {len(matrices)} queries (gamma={cfg.rewrite.gamma}) -> {out}")
    return 0


def _cmd_fuse_rrf(args, cfg: EngineConfig) -> int:
    run_files = [read_run(_input_path(p, "run")) for p in args.runs]
    qids = sorted({qid for run in run_files for qid in run})
    fused = {qid: rrf([run[qid] for run in run_files if qid in run], cfg.fusion, args.k) for qid in qids}
    out = _output_path(args.output, "run")
    write_run(out, fused, tag=args.tag)
    print(f"fused {len(run_files)} runs over {len(qids)} queries -> {out}")
    return 0


def _cmd_build_weak_labels(args, cfg: EngineConfig) -> int:
    index = load_index(_input_path(cfg.sparse_index, "index"))
    sessions = load_sessions(_input_path(args.sessions, "sessions"))
    if args.teacher_scores:
        teacher = TableTeacher.from_file(_input_path(args.teacher_scores, "teacher scores"))
    else:
        teacher = CosineTeacher(load_embeddings(_input_path(cfg.dense_store, "dense store"), index.table))
    labels = build_weak_labels(sessions, index, teacher, candidate_depth=args.depth, pool_size=args.pool_size)
    out = _output_path(args.output, "labels")
    save_weak_labels(labels, out)
    print(f"labeled {len(labels)} turns -> {out}")
    return 0


def _cmd_train_toy(args, cfg: EngineConfig) -> int:
    labels = load_weak_labels(_input_path(args.labels, "labels"))
    sessions = load_sessions(_input_path(args.sessions, "sessions"))
    store = load_embeddings(_input_path(cfg.dense_store, "dense store"))
    vocab_tokens = [tok for s in sessions for turn in s.turns for tok in tokenize(turn.raw_utterance)]
    encoder = ToyQueryEncoder.create(vocab_tokens, dim=store.dim, seed=cfg.train.seed)
    teacher = CosineTeacher(store) if cfg.train.use_soft_labels else None
    losses = train(encoder, labels, sessions, store, cfg.train, teacher=teacher)
    out = _output_path(args.output, "encoder checkpoint")
    encoder.save(out)
    first, last = (losses[0], losses[-1]) if losses else (math.nan, math.nan)
    print(
        f"trained {cfg.train.steps} steps (batch {cfg.train.batch_size}, "
        f"lr {cfg.train.learning_rate}): loss {first:.4f} -> {last:.4f}; saved {out}"
    )
    return 0


_METRICS = ("ndcg", "ndcg@3", "recall")


def _evaluate(args, run, qrels):
    """(report, label) for one run under ``args.metric``; ``ndcg@3`` is nDCG at cutoff 3."""
    cutoff = 3 if args.metric == "ndcg@3" else args.cutoff
    if args.metric == "recall":
        return recall_at(run, qrels, cutoff or 1000, args.min_grade), f"recall@{cutoff or 1000}"
    return ndcg(run, qrels, cutoff or 1000), "nDCG" if cutoff is None else f"nDCG@{cutoff}"


def _cmd_eval(args, cfg: EngineConfig) -> int:
    qrels_path = _input_path(cfg.qrels, "qrels")
    report, label = _evaluate(args, read_run(_input_path(args.run, "run")), read_qrels(qrels_path))
    if args.per_query:
        for qid in sorted(report.per_query):
            print(f"{qid} {report.per_query[qid]:.4f}")
    print(f"evaluated queries: {len(report.per_query)}")
    print(f"mean {label} {report.mean:.3f}")
    return 0


def _cmd_compare(args, cfg: EngineConfig) -> int:
    qrels_path = _input_path(cfg.qrels, "qrels")
    run, qrels = read_run(_input_path(args.run, "run")), read_qrels(qrels_path)
    system, label = _evaluate(args, run, qrels)
    baseline, _ = _evaluate(args, read_run(_input_path(args.baseline, "baseline run")), qrels)
    wins, ties = win_tie(system, baseline)
    qids = sorted(system.per_query)
    t, p = paired_t_test(
        [system.per_query[q] for q in qids], [baseline.per_query[q] for q in qids]
    )
    print(f"metric: {label} over {len(qids)} queries")
    print(f"system mean {system.mean:.3f} baseline mean {baseline.mean:.3f}")
    print(f"wins {wins} ties {ties} losses {len(qids) - wins - ties}")
    print(f"t = {t:.4f} p = {p:.6g}")
    return 0


def _cmd_converse(args, cfg: EngineConfig) -> int:
    index = load_index(_input_path(cfg.sparse_index, "index"))
    store = load_embeddings(_input_path(cfg.dense_store, "dense store"), index.table)
    _, turn = _query_source(args, cfg, store.dim)

    context, turn_number = [], 0  # the tokens and the count of the turns accepted since the last reset
    for line in sys.stdin:
        utterance = line.strip()
        if not utterance:
            continue
        if utterance == "exit":
            break
        if utterance == "reset":
            context, turn_number = [], 0
            print("context cleared")
            continue
        query = tokenize(utterance)
        if not query:
            print("no query tokens; ignored")
            continue
        turn_number += 1
        matrix = turn(f"{args.qid_prefix}{turn_number}", context, query)
        bag, ranked = hybrid_search(index, store, matrix, cfg.hybrid_rewrite, cfg.fusion, args.depth, args.k)

        print(f"turn {turn_number} ({len(context)} context tokens)")
        print(f"rewrite: {' '.join(bag)}")
        print("token norms (l2, normalized by context mean):")
        for i, row in enumerate(token_norm_report(matrix)):
            kind = "context" if i < matrix.context_len else "query"
            normalized = "-" if row.normalized_norm is None else f"{row.normalized_norm:.4f}"
            print(f"  [{kind}] {row.token} {row.l2_norm:.4f} {normalized}")
        print("results:")
        for e in ranked:
            print(f"  {e.rank}. {e.docid} {e.score:.6f}")
        context += query
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand gets only the flags it reads, except the hidden --corpus of
    # build-weak-labels and train-toy (see there). A flag that overrides a
    # config path or setting has that field's name as its dest and None (not
    # given) as its default, so _resolve merges it. Parents share their action
    # objects, so per-command defaults (--k) are set per subparser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"JSON config file (or ${ENV_CONFIG})")
    writes = argparse.ArgumentParser(add_help=False, parents=[common])
    writes.add_argument("--output", help="output file path")
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--store", dest="dense_store", metavar="STORE")
    matrix_source = argparse.ArgumentParser(add_help=False)
    matrix_source.add_argument(
        "--matrices", dest="query_matrices", metavar="MATRICES", help="token-matrix JSON-lines file"
    )
    matrix_source.add_argument("--encoder", help="toy encoder checkpoint manifest")
    hybrid = argparse.ArgumentParser(add_help=False, parents=[store])
    hybrid.add_argument("--index", dest="sparse_index", metavar="INDEX")
    hybrid.add_argument("--alpha", type=float)
    hybrid.add_argument("--gamma", type=float)
    hybrid.add_argument("--depth", type=int, default=1000)
    k_help = "result depth"

    parser = argparse.ArgumentParser(prog="cqe", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("index-sparse", parents=[common], help="build and save the inverted index")
    p.add_argument("--output", dest="sparse_index", metavar="OUTPUT", help="output file path")
    p.add_argument("--corpus")
    p.add_argument("--k1", type=float)
    p.add_argument("--b", type=float)
    p.set_defaults(func=_cmd_index_sparse)

    p = sub.add_parser("search-sparse", parents=[writes], help="BM25 retrieval for text queries")
    p.add_argument("--index", dest="sparse_index", metavar="INDEX")
    p.add_argument("--queries", help='JSON-lines {"qid", "text"}')
    p.add_argument("--k", type=int, default=1000, help=k_help)
    p.add_argument("--tag", default="sparse")
    p.set_defaults(func=_cmd_search_sparse)

    for name, help_text, func, group in (
        ("search-dense", "inner-product retrieval for query matrices", _cmd_search_dense, store),
        ("search-hybrid", "combined sparse+dense retrieval", _cmd_search_hybrid, hybrid),
    ):
        p = sub.add_parser(name, parents=[writes, matrix_source, group], help=help_text)
        p.add_argument("--sessions", help="sessions file (with --encoder)")
        p.add_argument("--k", type=int, default=1000, help=k_help)
        p.add_argument("--tag", default=name.split("-", 1)[1])
        p.set_defaults(func=func)

    p = sub.add_parser("rewrite", parents=[writes, matrix_source], help="emit decontextualized text queries")
    p.add_argument("--sessions")
    p.add_argument("--gamma", type=float)
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("fuse-rrf", parents=[writes], help="reciprocal rank fusion of run files")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--rrf-k", type=float, dest="rrf_k")
    p.add_argument("--k", type=int, help=f"{k_help} (default: all)")
    p.add_argument("--tag", default="rrf")
    p.set_defaults(func=_cmd_fuse_rrf)

    p = sub.add_parser("build-weak-labels", parents=[writes, store], help="pseudo-label session turns")
    # Neither this command nor train-toy reads a corpus. Both accept --corpus, unread and
    # unlisted, because perfbench's pipeline argv still passes it; ROADMAP item 2 deletes it.
    p.add_argument("--corpus", help=argparse.SUPPRESS)
    p.add_argument("--index", dest="sparse_index", metavar="INDEX")
    p.add_argument("--sessions")
    p.add_argument("--teacher-scores", dest="teacher_scores", help="file-backed teacher table")
    p.add_argument("--depth", type=int, default=1000)
    p.add_argument("--pool-size", type=int, default=200, dest="pool_size")
    p.set_defaults(func=_cmd_build_weak_labels)

    p = sub.add_parser("train-toy", parents=[writes, store], help="train the toy query encoder")
    p.add_argument("--labels")
    p.add_argument("--sessions")
    p.add_argument("--corpus", help=argparse.SUPPRESS)  # unread; see build-weak-labels
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--steps", type=int)
    p.add_argument("--learning-rate", "--lr", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--tau", type=float)
    p.add_argument("--hard-negatives", action="store_true", default=None, dest="use_hard_negatives")
    p.add_argument("--soft-labels", action="store_true", default=None, dest="use_soft_labels")
    p.set_defaults(func=_cmd_train_toy)

    p = sub.add_parser("eval", parents=[common], help="score a run file against qrels")
    p.add_argument("--run")
    p.add_argument("--qrels")
    p.add_argument("--metric", choices=_METRICS, default="ndcg")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--min-grade", type=int, default=2, dest="min_grade")
    p.add_argument("--per-query", action="store_true", dest="per_query")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", parents=[common], help="win/tie counts and paired t-test")
    p.add_argument("--run")
    p.add_argument("--baseline")
    p.add_argument("--qrels")
    p.add_argument("--metric", choices=_METRICS, default="ndcg@3")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--min-grade", type=int, default=2, dest="min_grade")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "converse", parents=[common, matrix_source, hybrid], help="interactive multi-turn retrieval"
    )
    p.add_argument("--qid-prefix", default="turn_", dest="qid_prefix")
    p.add_argument("--k", type=int, default=10, help=k_help)
    p.set_defaults(func=_cmd_converse)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    with warnings.catch_warnings():  # restores showwarning: only the command's warnings take the one-line form
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            cfg = _resolve(args)
            for name in ("k", "depth", "pool_size", "cutoff"):  # counts, refused before any input is read
                if (value := getattr(args, name, None)) is not None and value < 1:
                    raise ValueError(f"{name.replace('_', '-')} must be >= 1, got {value}")
            return args.func(args, cfg)
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
