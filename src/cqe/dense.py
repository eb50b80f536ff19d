"""Passage embedding store with exact top-k inner-product search.

Vectors live on disk as little-endian 32-bit floats, and in a store as one float32 matrix of the same values plus
each row's float64 L2 norm. A float32 pass screens every row, with a proven bound on its distance from the float64
score (README "Search notes"); only rows whose upper bound reaches the k-th best lower bound are scored in float64.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .core import _finite_norms
from .corpus import check_ids, read_jsonl, write_jsonl
from .ranking import PassageTable, RankedList, top_k, top_k_floor


class PassageEmbeddingStore:
    """Passage vectors, one row per id: a read-only C-contiguous float32 matrix and its float64 row norms."""

    def __init__(self, ids: list[str], vectors: np.ndarray):
        vectors = np.array(vectors, dtype=np.float32, order="C")  # a copy: the bound's norms must stay its rows'
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if not np.isfinite(norms := row_norms(vectors)).all():  # a NaN or inf makes its row's norm so
            raise ValueError("vectors contain non-finite values")
        self._take(ids, vectors, norms)

    def _take(
        self, ids: list[str], vectors: np.ndarray, norms: np.ndarray, table: PassageTable | None = None
    ) -> PassageEmbeddingStore:
        """This store, holding ``vectors`` (float32, C-contiguous, finite) and their ``norms`` without a copy, and
        ``table`` where ``ids`` is its (checked) id list, else a table of ``ids``."""
        if vectors.shape[1] < 1:
            raise ValueError("vector dimension must be >= 1")
        if len(ids) != vectors.shape[0]:
            raise ValueError(f"id count {len(ids)} != vector count {vectors.shape[0]}")
        if table is None or ids is not table.ids:
            check_ids(ids, "passage id")
            table = PassageTable(list(ids))
        vectors.flags.writeable = norms.flags.writeable = False
        self.table, self.ids, self.vectors, self.norms = table, table.ids, vectors, norms
        return self

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


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


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The float64 L2 norm of each row of 2-D float32 ``rows``."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))


def read_f32(path: str, count: int, dim: int, nonfinite: str) -> tuple[np.ndarray, np.ndarray]:
    """A little-endian f32 blob as ``count`` x ``dim`` "<f4" and its :func:`row_norms`, size checked first, read
    in place about BLOCK_BYTES at a time; ValueError ``nonfinite`` on NaN or inf."""
    with open(path, "rb", buffering=0) as fh:
        if (size := os.fstat(fh.fileno()).st_size) != 4 * count * dim:
            raise ValueError(f"{path}: holds {size / 4:.12g} floats, manifest declares {count}x{dim}")
        out, norms, step = np.empty((count, dim), "<f4"), np.empty(count), max(1, BLOCK_BYTES // (4 * max(dim, 1)))
        for first in range(0, count, step):
            block = out[first : first + step]
            if fh.readinto(block) != block.nbytes:
                raise ValueError(f"{path}: changed while being read")
            norms[first : first + len(block)] = row_norms(block)
            if not np.isfinite(norms[first : first + len(block)]).all():  # a NaN or inf makes its row's norm so
                raise ValueError(nonfinite)
    return out, norms


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def read_lines(path: str, count: int, what: str, known: list[str] | None = None) -> list[str]:
    """The lines of a UTF-8 line file, which must hold ``count`` ``what``: ``known`` itself where the file's text
    is exactly those lines, each ended by a newline, so no second list of them is built."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    lines = known if known is not None and text == "\n".join(known) + "\n" else text.splitlines()
    if len(lines) != count:
        raise ValueError(f"{path}: {len(lines)} {what} != declared count {count}")
    return lines


def save_embeddings(store: PassageEmbeddingStore, manifest_path: str) -> None:
    """Write manifest JSON plus <base>.f32 vector and <base>.ids id files."""
    base = sidecar_base(manifest_path)
    write_manifest(manifest_path, dim=store.dim, count=store.count)
    store.vectors.astype("<f4", copy=False).tofile(base + ".f32")
    write_lines(base + ".ids", store.ids)


def load_embeddings(manifest_path: str, table: PassageTable | None = None) -> PassageEmbeddingStore:
    """Load a store saved by :func:`save_embeddings`; round-trips byte-exactly. The store keeps ``table``, an
    index's, where its ids file holds exactly the table's ids in row order."""
    dim, count = read_manifest(manifest_path, "dim", "count")
    base = sidecar_base(manifest_path)
    vectors, norms = read_f32(base + ".f32", count, dim, f"{manifest_path}: vectors contain non-finite values")
    ids = read_lines(base + ".ids", count, "ids", getattr(table, "ids", None))
    try:  # the vectors are checked finite and their norms computed already: no second copy
        return PassageEmbeddingStore.__new__(PassageEmbeddingStore)._take(ids, vectors, norms, table)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None


# Queries per pass over the store, row blocks per span (a chunk's screen never spans the store: at most two spans
# per query), and the bytes of a float64 block: about 1 MB, so a block read once serves a chunk from L2.
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
    """``out[j] = vectors @ queries[j]`` for each query, bit for bit, one matrix-vector product per row block.

    Blocks are the :func:`pieces` of :func:`block_rows`: a row's bits then equal those of one product over
    the whole store (at one BLAS thread), where a short last block's would not, and do not depend on the
    other queries of a chunk at any thread count. This defines the float64 scores :func:`rescore` gives.
    """
    for a, b in pieces(vectors.shape[0], block_rows(vectors.shape[1])):
        block = vectors[a:b]
        for query, row in zip(queries, out):
            np.matmul(block, query, out=row[a:b])


def screen_queries(queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row q of ``queries``: float32(2^s q), where ||2^s q|| is in [0.5, 1) unless q is 0, C * ||2^s q|| and A."""
    top = np.frexp(np.abs(queries).max(axis=1))[1]  # 2^-top q has its largest entry in [0.5, 1)
    norm, exp = np.frexp(np.linalg.norm(np.ldexp(queries, -top[:, None]), axis=1))
    scale, d, u32, u64 = -(top + exp), queries.shape[1], 2.0**-24, 2.0**-53
    c = 1.01 * (math.expm1(d * u32) * (1 + u32) + u32 + math.expm1(d * u64))  # README "Search notes"
    return np.ldexp(queries, scale[:, None]).astype(np.float32), c * norm, d * (2.0**-148 + np.ldexp(1.0, scale - 1074))


def rescore(store: PassageEmbeddingStore, rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """float64 scores of ascending ``rows``, bit for bit those :func:`score_chunk` gives them over the whole store:
    rows gathered, widened and zero-padded to a multiple of ROW_ALIGN score as in place; the tail, in the last block."""
    split, step = int(np.searchsorted(rows, store.count // ROW_ALIGN * ROW_ALIGN)), block_rows(store.dim)
    scores, out = np.empty(len(rows)), np.empty((1, 2 * step))  # a piece, as the last block, is under 2 * step rows
    for a, b in pieces(split, step):
        gathered = np.empty((-(-(b - a) // ROW_ALIGN) * ROW_ALIGN, store.dim))
        gathered[: b - a], gathered[b - a :] = store.vectors[rows[a:b]], 0.0
        score_chunk(gathered, query[None], out)
        scores[a:b] = out[0, : b - a]
    if split < len(rows):
        first = pieces(store.count, step)[-1][0]
        score_chunk(store.vectors[first:].astype(np.float64), query[None], out)
        scores[split:] = out[0, rows[split:] - first]
    return scores


def search_dense_many(store: PassageEmbeddingStore, queries: np.ndarray, k: int) -> list[RankedList]:
    """Exact top-k by inner product for each row of ``queries``; ties broken by ascending passage id.

    Every query is checked before any is scored: its squared L2 norm must be finite, so no float64 score of a
    finite float32 store can overflow. Each result equals :func:`search_dense` of that row alone, bit for bit.
    After each span is screened a query keeps the rows whose upper bound reaches its floor, the k-th best lower
    bound it has kept, and cuts them to it once they pass max(2k, twice their count after the last cut), so
    even a query whose bounds all tie is cut a logarithmic number of times; then once more, and rescores them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != store.dim:
        raise ValueError(f"query dimension {queries.shape[1:]} does not match store dim {store.dim}")
    if not _finite_norms(queries):
        raise ValueError("query vector contains non-finite values or its squared norm overflows")
    spans = pieces(store.count, SPAN_BLOCKS * block_rows(store.dim))
    buffer = np.empty(min(QUERY_CHUNK, len(queries)) * (store.count - spans[-1][0]), dtype=np.float32)
    results = []
    for first in range(0, len(queries), QUERY_CHUNK):
        chunk = queries[first : first + QUERY_CHUNK]
        (q32, rel, under), n = screen_queries(chunk), len(chunk)
        floors, kept, cut_at = [-math.inf] * n, [None] * n, [0] * n
        for a, b in spans:
            screen = buffer[: n * (b - a)].reshape(n, b - a)
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(q32, store.vectors[a:b].T, out=screen)
            if (wild := None if np.isfinite(screen).all() else ~np.isfinite(screen)) is not None:
                screen[wild] = 0.0  # with e = inf below: an overflowed score bounds its row by (-inf, inf)
            for j, s in enumerate(screen):
                err = store.norms[a:b] * rel[j] + under[j]  # each row's bound e
                if wild is not None:
                    err[wild[j]] = math.inf
                upper = s + err
                if a == 0:  # the first span is cut on its own; gathers copy, so nothing shares ``buffer``
                    lower = s - err
                    floors[j], hit = top_k_floor(lower, k, upper) if b > k else (-math.inf, np.arange(b))
                    kept[j], cut_at[j] = (hit, lower[hit], upper[hit]), len(hit)
                elif len(hit := np.flatnonzero(upper >= floors[j])):
                    new = hit + a, s[hit] - err[hit], upper[hit]
                    rows, lower, upper = kept[j] = [np.concatenate(pair) for pair in zip(kept[j], new)]
                    if len(rows) > 2 * max(k, cut_at[j]):
                        floors[j], cut = top_k_floor(lower, k, upper)
                        kept[j], cut_at[j] = (rows[cut], lower[cut], upper[cut]), len(cut)
        for query, (rows, lower, upper), at in zip(chunk, kept, cut_at):
            if len(rows) > max(k, at):  # rows kept since the last cut may have raised the floor
                rows = rows[top_k_floor(lower, k, upper)[1]]
            results.append(top_k(rows, rescore(store, rows, query), store.table, k))
    return results


def search_dense(store: PassageEmbeddingStore, query: np.ndarray, k: int) -> RankedList:
    """Exact top-k by inner product; ties broken by ascending passage id."""
    return search_dense_many(store, [query], k)[0]
