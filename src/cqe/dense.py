"""Passage embedding store with exact top-k inner-product search.

Dense vectors are plain 1-D numpy arrays. Vectors live on disk as
little-endian 32-bit floats; scoring accumulates in 64-bit. Search is
exact brute force over all stored rows.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .corpus import WHITESPACE
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
        # One scan of all ids; the per-id search only runs to name the offender.
        if "" in self._row or WHITESPACE.search("\0".join(ids)):
            bad = next(pid for pid in ids if not pid or WHITESPACE.search(pid))
            raise ValueError(f"passage id {bad!r} is empty or contains whitespace")
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
        try:
            return self.vectors[self._row[passage_id]]
        except KeyError:
            raise KeyError(f"unknown passage id {passage_id!r}") from None


def _companion_paths(manifest_path: str) -> tuple[str, str]:
    base = manifest_path[:-5] if manifest_path.endswith(".json") else manifest_path
    return base + ".f32", base + ".ids"


def save_embeddings(store: PassageEmbeddingStore, manifest_path: str) -> None:
    """Write manifest JSON plus <base>.f32 vector and <base>.ids id files."""
    vec_path, ids_path = _companion_paths(manifest_path)
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"dim": store.dim, "count": store.count, "dtype": "f32le"}, fh)
        fh.write("\n")
    with open(vec_path, "wb") as fh:
        fh.write(store.vectors.astype("<f4").tobytes())
    with open(ids_path, "w", encoding="utf-8", newline="\n") as fh:
        for pid in store.ids:
            fh.write(pid)
            fh.write("\n")


def load_embeddings(manifest_path: str) -> PassageEmbeddingStore:
    """Load a store saved by :func:`save_embeddings`; round-trips byte-exactly."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    dim = manifest.get("dim")
    count = manifest.get("count")
    dtype = manifest.get("dtype")
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{manifest_path}: invalid dim {dim!r}")
    if not isinstance(count, int) or count < 0:
        raise ValueError(f"{manifest_path}: invalid count {count!r}")
    if dtype != "f32le":
        raise ValueError(f"{manifest_path}: unsupported dtype {dtype!r}")

    vec_path, ids_path = _companion_paths(manifest_path)
    raw = np.fromfile(vec_path, dtype="<f4")
    if raw.size != count * dim:
        raise ValueError(
            f"{vec_path}: holds {raw.size} floats, manifest declares {count}x{dim}"
        )
    with open(ids_path, encoding="utf-8") as fh:
        ids = fh.read().splitlines()
    if len(ids) != count:
        raise ValueError(f"{ids_path}: {len(ids)} ids != declared count {count}")
    try:
        return PassageEmbeddingStore(ids, raw.reshape(count, dim))
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None


def search_dense(store: PassageEmbeddingStore, query: np.ndarray, k: int) -> RankedList:
    """Exact top-k by inner product; ties broken by ascending passage id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1 or query.shape[0] != store.dim:
        raise ValueError(f"query dimension {query.shape} does not match store dim {store.dim}")
    if not np.isfinite(query).all():
        raise ValueError("query vector contains non-finite values")
    if store.count == 0:
        return RankedList([], tag="dense")
    # One matrix-vector product per query: a matrix-matrix product over a
    # batch of queries rounds differently and would change the scores.
    scores = store._vectors64 @ query
    return top_k(np.arange(store.count), scores, store.ids, store._id_ranks, k, "dense")
