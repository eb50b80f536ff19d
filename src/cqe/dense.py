"""Passage embedding store with exact top-k inner-product search.

Dense vectors are plain 1-D numpy arrays. Vectors live on disk as
little-endian 32-bit floats; scoring accumulates in 64-bit. Search is
exact brute force over all stored rows.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import check_ids, read_jsonl, write_jsonl
from .ranking import RankedList, id_ranks, top_k


class PassageEmbeddingStore:
    """Fixed-dimension passage vectors, one row per passage id."""

    def __init__(self, ids: list[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if vectors.shape[1] < 1:
            raise ValueError("vector dimension must be >= 1")
        if len(ids) != vectors.shape[0]:
            raise ValueError(f"id count {len(ids)} != vector count {vectors.shape[0]}")
        if vectors.size and not np.isfinite(vectors).all():
            raise ValueError("vectors contain non-finite values")
        self._row = {pid: i for i, pid in enumerate(ids)}
        if len(self._row) != len(ids):
            raise ValueError("passage ids must be unique")
        check_ids(ids, "passage id")
        self.ids = list(ids)
        self.vectors = vectors

    @cached_property
    def _vectors64(self) -> np.ndarray:
        """The float64 copy search scores against (8 * count * dim bytes), made on first search.

        ``vectors`` must not be modified in place after that.
        """
        return self.vectors.astype(np.float64)

    @cached_property
    def _id_ranks(self) -> np.ndarray:
        return id_ranks(self.ids)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._row

    def vector(self, passage_id: str) -> np.ndarray:
        return self.vectors[self.rows([passage_id])[0]]

    def rows(self, passage_ids: Sequence[str]) -> np.ndarray:
        """The row of each of ``passage_ids``; KeyError naming the first unknown id."""
        try:
            return np.fromiter(map(self._row.__getitem__, passage_ids), np.intp, len(passage_ids))
        except KeyError as exc:
            raise KeyError(f"unknown passage id {exc.args[0]!r}") from None


# Store and encoder files: a manifest, one JSON line {<size>: int, ..., "dtype": "f32le"}, and
# sidecars named by the manifest path without ".json": f32 little-endian blobs and UTF-8 line files.


def sidecar_base(manifest_path: str) -> str:
    return manifest_path[:-5] if manifest_path.endswith(".json") else manifest_path


def write_manifest(path: str, **sizes: int) -> None:
    write_jsonl(path, [{**sizes, "dtype": "f32le"}])


def read_manifest(path: str, *names: str) -> tuple[int, ...]:
    """The sizes ``names`` of a manifest; ValueError naming ``path`` unless it is well formed."""

    def record(obj: dict) -> tuple[int, ...]:
        if obj.get("dtype") != "f32le":
            raise ValueError(f"unsupported dtype {obj.get('dtype')!r}")
        sizes = tuple(obj[name] for name in names)
        for name, size in zip(names, sizes):
            if type(size) is not int or size < 0:
                raise ValueError(f"invalid {name} {size!r}")
        return sizes

    manifests = read_jsonl(path, record)
    if len(manifests) != 1:
        raise ValueError(f"{path}: expected one manifest line, got {len(manifests)}")
    return manifests[0]


def read_f32(path: str, *shape: int) -> np.ndarray:
    """A little-endian f32 blob as a float32 array of ``shape``, its size checked."""
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != math.prod(shape):
        raise ValueError(f"{path}: holds {raw.size} floats, manifest declares {'x'.join(map(str, shape))}")
    return raw.reshape(shape)


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def read_lines(path: str, count: int, what: str) -> list[str]:
    """The lines of a UTF-8 line file, which must hold ``count`` ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    if len(lines) != count:
        raise ValueError(f"{path}: {len(lines)} {what} != declared count {count}")
    return lines


def save_embeddings(store: PassageEmbeddingStore, manifest_path: str) -> None:
    """Write manifest JSON plus <base>.f32 vector and <base>.ids id files."""
    base = sidecar_base(manifest_path)
    write_manifest(manifest_path, dim=store.dim, count=store.count)
    store.vectors.astype("<f4").tofile(base + ".f32")
    write_lines(base + ".ids", store.ids)


def load_embeddings(manifest_path: str) -> PassageEmbeddingStore:
    """Load a store saved by :func:`save_embeddings`; round-trips byte-exactly."""
    dim, count = read_manifest(manifest_path, "dim", "count")
    base = sidecar_base(manifest_path)
    vectors = read_f32(base + ".f32", count, dim)
    ids = read_lines(base + ".ids", count, "ids")
    try:
        return PassageEmbeddingStore(ids, vectors)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None


# Queries scored per pass over the store, and the float64 bytes of one row block: about
# 1 MB, so a block read once from memory serves every query of a chunk from the L2 cache.
QUERY_CHUNK = 8
BLOCK_BYTES = 1 << 20
ROW_ALIGN = 64


def block_rows(dim: int) -> int:
    """Rows per block at dimension ``dim``: a multiple of ROW_ALIGN near BLOCK_BYTES of float64."""
    return max(ROW_ALIGN, BLOCK_BYTES // (8 * dim) // ROW_ALIGN * ROW_ALIGN)


def score_chunk(vectors: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
    """``out[j] = vectors @ queries[j]`` for each query, bit for bit, one row block at a time.

    Each block is scored by one matrix-vector product per query, so the
    block is read from memory once per chunk instead of once per query.
    Blocks start at multiples of :func:`block_rows` and the last block
    takes the rest: a row's bits then equal those of one product over the
    whole store (at one BLAS thread), where a short last block would not.
    Every query takes the same blocks, however many share its chunk, so its
    bits do not depend on the other queries at any thread count.
    """
    count, step = vectors.shape[0], block_rows(vectors.shape[1])
    starts = range(0, max(count // step, 1) * step, step)
    for a, b in zip(starts, [*starts[1:], count]):
        block = vectors[a:b]
        for query, row in zip(queries, out):
            np.matmul(block, query, out=row[a:b])


def search_dense_many(store: PassageEmbeddingStore, queries: np.ndarray, k: int) -> list[RankedList]:
    """Exact top-k by inner product for each row of ``queries``; ties broken by ascending passage id.

    Every query is checked before any is scored. Each result equals
    :func:`search_dense` of that row alone, bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != store.dim:
        raise ValueError(f"query dimension {queries.shape[1:]} does not match store dim {store.dim}")
    if not np.isfinite(queries).all():
        raise ValueError("query vector contains non-finite values")
    if not len(queries):
        return []
    if store.count == 0:
        return [RankedList() for _ in queries]
    vectors, rows = store._vectors64, np.arange(store.count)
    scores = np.empty((min(QUERY_CHUNK, len(queries)), store.count))
    results = []
    for first in range(0, len(queries), QUERY_CHUNK):
        chunk = queries[first : first + QUERY_CHUNK]
        score_chunk(vectors, chunk, scores)
        # top_k copies what it keeps, so no result shares memory with ``scores``.
        results += [top_k(rows, row, store.ids, store._id_ranks, k) for row in scores[: len(chunk)]]
    return results


def search_dense(store: PassageEmbeddingStore, query: np.ndarray, k: int) -> RankedList:
    """Exact top-k by inner product; ties broken by ascending passage id."""
    return search_dense_many(store, [query], k)[0]
