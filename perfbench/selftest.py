"""Self-tests for the benchmark's own pieces.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Run from the repository root; cqe is imported from ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
from tracing import Span, Tracer, percentile, self_times_ns  # noqa: E402
from workload import END_TO_END, PER_LAYER  # noqa: E402


def _digest(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_generator_is_deterministic_per_seed():
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
    try:
        first, again, other = (os.path.join(tmp, d) for d in ("a", "b", "c"))
        gen.generate("tiny", 5, first)
        gen.generate("tiny", 5, again)
        gen.generate("tiny", 6, other)
        assert _digest(first) == _digest(again)
        assert _digest(first)["corpus.jsonl"] != _digest(other)["corpus.jsonl"]
    finally:
        shutil.rmtree(tmp)


def _swap_tied(ranked: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """The list with its first pair of exactly tied neighbours swapped."""
    for i in range(len(ranked) - 1):
        if ranked[i][1] == ranked[i + 1][1]:
            out = list(ranked)
            out[i], out[i + 1] = out[i + 1], out[i]
            return out
    raise AssertionError("no tied pair to swap")


def test_dense_oracle_flags_swapped_tie():
    from cqe.dense import PassageEmbeddingStore, search_dense

    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((8, 4)).astype(np.float32)
    vectors[5] = vectors[2]  # d2 and d5 tie for every query
    ids = [f"d{i}" for i in range(8)]
    query = vectors[2].astype(np.float64)
    want = oracle.dense_scores(vectors.astype(np.float64), ids, query)
    got = [(e.docid, e.score) for e in search_dense(PassageEmbeddingStore(ids, vectors), query, 8)]
    assert oracle.compare(got, want, 8, tol=1e-9) is None
    assert "tied" in oracle.compare(_swap_tied(got), want, 8, tol=1e-9)


def _tied_index():
    from cqe.corpus import Corpus, Passage
    from cqe.sparse import build_index

    texts = ["red fox", "blue fox jumps", "red red fox", "blue fox jumps", "green"]
    return build_index(Corpus(Passage(f"d{i}", t) for i, t in enumerate(texts)))


def test_sparse_oracle_flags_swapped_tie():
    from cqe.sparse import search_sparse

    index = _tied_index()
    bag = ["blue", "fox"]
    want = oracle.sparse_scores(index, bag, index.ids)
    got = [(e.docid, e.score) for e in search_sparse(index, bag, 10)]
    assert oracle.compare(got, want, 10, tol=1e-9) is None
    assert "tied" in oracle.compare(_swap_tied(got), want, 10, tol=1e-9)
    ids_only = [(d, None) for d, _ in _swap_tied(got)]
    assert "tied" in oracle.compare(ids_only, want, 10, tol=1e-9)


def test_hybrid_oracle_flags_swapped_tie():
    from cqe.fusion import FusionConfig, hybrid_combine
    from cqe.ranking import RankedList

    # d1 and d3 have equal sparse scores and both miss the dense list.
    sparse = [("d0", 3.0), ("d1", 2.0), ("d3", 2.0)]
    dense = [("d0", 0.9), ("d2", 0.5)]
    want = oracle.hybrid_scores(sparse, dense, 0.1)
    fused = hybrid_combine(RankedList.from_scores(sparse), RankedList.from_scores(dense), FusionConfig(alpha=0.1))
    got = [(e.docid, e.score) for e in fused]
    assert oracle.compare(got, want, 4, tol=1e-9) is None
    assert "tied" in oracle.compare(_swap_tied(got), want, 4, tol=1e-9)


def test_compare_flags_missing_and_misscored_documents():
    want = {"a": 3.0, "b": 2.0, "c": 1.0}
    assert oracle.compare([("a", 3.0), ("c", 1.0)], want, 2, tol=1e-9) is not None
    assert oracle.compare([("a", 3.0), ("b", 2.5)], want, 2, tol=1e-9) is not None
    assert oracle.compare([("a", 3.0), ("b", 2.0)], want, 2, tol=1e-9) is None


def test_percentile_refuses_p90_without_ten_samples_beyond():
    assert percentile(range(100), 90, min_beyond=10) == 89
    try:
        percentile(range(99), 90, min_beyond=10)
    except ValueError:
        pass
    else:
        raise AssertionError("p90 of 99 samples has only 9 beyond it")
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0, 100, -1, "q"),
        Span("a", 10, 40, 0, "q"),
        Span("a.inner", 20, 30, 1, "q"),
        Span("b", 50, 60, 0, "q"),
    ]
    assert self_times_ns(spans) == [60, 20, 10, 10]


def test_tracer_wraps_every_binding_and_restores():
    import cqe.cli
    import cqe.sparse
    import cqe.trainer

    original = cqe.sparse.search_sparse
    index = _tied_index()
    tr = Tracer()
    assert tr.wrap("cqe.sparse:search_sparse", "sparse.search_sparse")
    assert not tr.wrap("cqe.sparse:no_such_function", "missing")
    assert cqe.cli.search_sparse is cqe.trainer.search_sparse is not original
    late = types.ModuleType("cqe._imported_while_traced")
    late.search_sparse = cqe.sparse.search_sparse  # what a later "from .sparse import" binds
    sys.modules[late.__name__] = late
    with tr.span("outer"):
        cqe.cli.search_sparse(index, ["fox"], 3)
    tr.restore()
    del sys.modules[late.__name__]
    assert cqe.cli.search_sparse is cqe.trainer.search_sparse is late.search_sparse is original
    spans = tr.finished()
    assert [s.name for s in spans] == ["outer", "sparse.search_sparse"]
    assert spans[1].parent == 0 and tr.counters["sparse.search_sparse.calls"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
