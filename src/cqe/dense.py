"""Passage embedding store with exact top-k inner-product search.

Vectors live on disk as little-endian 32-bit floats, and in a store as one
float64 matrix of the same values, read block by block straight into it.
Scoring accumulates in 64-bit. Search is exact brute force over all rows.
"""

from __future__ import annotations

import math
import os
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import _finite_norms
from .corpus import check_ids, read_jsonl, write_jsonl
from .ranking import RankedList, id_ranks, top_k, top_k_floor


class PassageEmbeddingStore:
    """Passage vectors, one row per id: a C-contiguous float64 matrix of float32 values, scored as it is."""

    def __init__(self, ids: list[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if vectors.size and not np.isfinite(vectors).all():
            raise ValueError("vectors contain non-finite values")
        self._take(ids, vectors.astype(np.float64, order="C"))

    def _take(self, ids: list[str], vectors: np.ndarray) -> PassageEmbeddingStore:
        """This store, holding ``vectors`` (float64, C-contiguous, finite float32 values) without a copy."""
        if vectors.shape[1] < 1:
            raise ValueError("vector dimension must be >= 1")
        if len(ids) != vectors.shape[0]:
            raise ValueError(f"id count {len(ids)} != vector count {vectors.shape[0]}")
        check_ids(ids, "passage id")
        self.ids, self.vectors = list(ids), vectors
        return self

    @cached_property
    def _row(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))

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


def read_f32(path: str, shape: tuple[int, ...], nonfinite: str) -> np.ndarray:
    """A little-endian f32 blob as float64 ``shape``, size checked first; ValueError ``nonfinite`` on NaN or inf."""
    count = math.prod(shape)
    with open(path, "rb", buffering=0) as fh:
        if (size := os.fstat(fh.fileno()).st_size) != 4 * count:
            raise ValueError(f"{path}: holds {size / 4:.12g} floats, manifest declares {'x'.join(map(str, shape))}")
        out, buf = np.empty(count), np.empty(max(1, min(count, BLOCK_BYTES // 4)), dtype="<f4")
        for first in range(0, count, len(buf)):
            block = buf[: count - first]
            if fh.readinto(block) != block.nbytes:
                raise ValueError(f"{path}: changed while being read")
            if not np.isfinite(block).all():
                raise ValueError(nonfinite)
            out[first : first + len(block)] = block
    return out.reshape(shape)


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
    vectors = read_f32(base + ".f32", (count, dim), f"{manifest_path}: vectors contain non-finite values")
    ids = read_lines(base + ".ids", count, "ids")
    try:  # the vectors are float64 and checked finite already: no second copy
        return PassageEmbeddingStore.__new__(PassageEmbeddingStore)._take(ids, vectors)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None


# Queries per pass over the store, row blocks per span (a chunk's scores never span the store: at most two spans
# per query), and the bytes of a block: about 1 MB, so a block read once serves every query of a chunk from L2.
QUERY_CHUNK = 32
SPAN_BLOCKS = 16
BLOCK_BYTES = 1 << 20
ROW_ALIGN = 64


def block_rows(dim: int) -> int:
    """Rows per block at dimension ``dim``: a multiple of ROW_ALIGN near BLOCK_BYTES of float64."""
    return max(ROW_ALIGN, BLOCK_BYTES // (8 * dim) // ROW_ALIGN * ROW_ALIGN)


def pieces(count: int, step: int) -> list[tuple[int, int]]:
    """(start, stop) of each piece of ``count`` rows: pieces start at multiples of ``step``, the last takes the rest."""
    starts = range(0, max(count // step, 1) * step, step)
    return list(zip(starts, [*starts[1:], count]))


def score_chunk(vectors: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
    """``out[j] = vectors @ queries[j]`` for each query, bit for bit, one row block at a time.

    Each block is scored by one matrix-vector product per query, so the block is read from memory
    once per chunk instead of once per query. Blocks are the :func:`pieces` of :func:`block_rows`:
    a row's bits then equal those of one product over the whole store (at one BLAS thread), where a
    short last block would not, and so do a span's that starts at a multiple of the block size.
    Every query takes the same blocks, however many share its chunk, so its bits do not depend on
    the other queries at any thread count.
    """
    for a, b in pieces(vectors.shape[0], block_rows(vectors.shape[1])):
        block = vectors[a:b]
        for query, row in zip(queries, out):
            np.matmul(block, query, out=row[a:b])


def search_dense_many(store: PassageEmbeddingStore, queries: np.ndarray, k: int) -> list[RankedList]:
    """Exact top-k by inner product for each row of ``queries``; ties broken by ascending passage id.

    Every query is checked before any is scored: its squared L2 norm must be finite, so no score of
    a finite float32 store can overflow. Each result equals :func:`search_dense` of that row alone,
    bit for bit. The store is scored in :func:`pieces` of SPAN_BLOCKS blocks; after each span a
    query keeps only rows at or above the k-th best score it has kept (:func:`top_k_floor`). A row
    below that floor has k rows strictly above it, so :func:`top_k` of the kept rows is exact. The
    kept rows are cut once they pass max(2k, twice their count after the last cut), so a query whose
    scores all tie, and whose every row stays, is cut a logarithmic number of times, not every span.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != store.dim:
        raise ValueError(f"query dimension {queries.shape[1:]} does not match store dim {store.dim}")
    if not _finite_norms(queries):
        raise ValueError("query vector contains non-finite values or its squared norm overflows")
    spans = pieces(store.count, SPAN_BLOCKS * block_rows(store.dim))
    scores = np.empty((min(QUERY_CHUNK, len(queries)), store.count - spans[-1][0]))
    results = []
    for first in range(0, len(queries), QUERY_CHUNK):
        chunk = queries[first : first + QUERY_CHUNK]
        floors, kept, cut_above = [-math.inf] * len(chunk), [None] * len(chunk), [0] * len(chunk)
        for a, b in spans:
            score_chunk(store.vectors[a:b], chunk, scores)
            for j, row in enumerate(scores[: len(chunk), : b - a]):
                if a == 0:  # the first span is cut on its own; gathers copy, so no result shares ``scores``
                    floors[j], hit = top_k_floor(row, k) if b > k else (-math.inf, np.arange(b))
                    kept[j], cut_above[j] = (hit, row[hit]), 2 * max(k, len(hit))
                elif len(hit := np.flatnonzero(row >= floors[j])):
                    rows, vals = np.concatenate((kept[j][0], hit + a)), np.concatenate((kept[j][1], row[hit]))
                    if len(rows) > cut_above[j]:
                        floors[j], cut = top_k_floor(vals, k)
                        rows, vals, cut_above[j] = rows[cut], vals[cut], 2 * max(k, len(cut))
                    kept[j] = rows, vals
        results += [top_k(rows, vals, store.ids, store._id_ranks, k) for rows, vals in kept]
    return results


def search_dense(store: PassageEmbeddingStore, query: np.ndarray, k: int) -> RankedList:
    """Exact top-k by inner product; ties broken by ascending passage id."""
    return search_dense_many(store, [query], k)[0]
