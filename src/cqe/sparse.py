"""Inverted index with BM25 scoring for bag-of-words retrieval.

Scoring uses the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5))
and the saturated term frequency tf*(k1+1)/(tf + k1*(1 - b + b*len/avglen)).
Query terms keep their multiplicity: repeated terms add weight.
"""

from __future__ import annotations

import math
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .corpus import Corpus, check_ids, tokenize
from .ranking import RankedList, id_ranks, top_k

MAGIC = b"CQESPIDX"
FORMAT_VERSION = 1
U32 = np.dtype("<u4")  # ordinals, term frequencies and lengths, as stored on disk


@dataclass(frozen=True)
class BM25Config:
    k1: float = 0.82
    b: float = 0.68

    def __post_init__(self) -> None:
        if not (self.k1 >= 0.0):
            raise ValueError(f"k1 must be >= 0, got {self.k1}")
        if not (0.0 <= self.b <= 1.0):
            raise ValueError(f"b must be in [0, 1], got {self.b}")


class InvertedIndex:
    """Term postings plus the document statistics BM25 needs.

    Each term's postings are two equal-length u32 arrays, ordinals and
    term frequencies, sorted by ordinal; ordinals follow corpus order and
    map back to passage ids.
    """

    def __init__(
        self,
        ids: list[str],
        doc_lengths: list[int],
        postings: Mapping[str, tuple[np.ndarray, np.ndarray]],
        config: BM25Config,
    ):
        if len(ids) != len(doc_lengths):
            raise ValueError("ids and doc_lengths must have equal length")
        self.ids = list(ids)
        self.doc_lengths = list(doc_lengths)
        self.config = config
        self.doc_count = len(ids)
        self.avg_doc_length = sum(doc_lengths) / len(doc_lengths) if doc_lengths else 0.0
        self._postings = dict(postings)
        self._lengths = np.asarray(self.doc_lengths, dtype=np.int64)

    @property
    def term_count(self) -> int:
        return len(self._postings)

    def term_postings(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(ordinals, term frequencies) of ``term``, or None when it is not indexed."""
        return self._postings.get(term)

    @cached_property
    def _ordinal(self) -> dict[str, int]:
        return {pid: i for i, pid in enumerate(self.ids)}

    @cached_property
    def _id_ranks(self) -> np.ndarray:
        return id_ranks(self.ids)

    def ordinal(self, passage_id: str) -> int:
        try:
            return self._ordinal[passage_id]
        except KeyError:
            raise ValueError(f"unknown passage id {passage_id!r}") from None

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._ordinal


def build_index(corpus: Corpus, config: BM25Config | None = None) -> InvertedIndex:
    """Index a tokenized corpus; the corpus must be non-empty."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    config = config or BM25Config()
    ids = []
    doc_lengths = []
    distinct = []  # distinct terms per passage
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__  # a new term gets the next id
    flat_terms: list[int] = []
    flat_tfs: list[int] = []
    for passage in corpus:
        tokens = tokenize(passage.text)
        counts = Counter(tokens)
        ids.append(passage.id)
        doc_lengths.append(len(tokens))
        distinct.append(len(counts))
        flat_terms.extend(map(term_ids.__getitem__, counts))
        flat_tfs.extend(counts.values())
    # One stable sort groups the postings by term, in sorted term order,
    # and keeps each term's ordinals ascending.
    terms = sorted(term_ids)
    term_rank = np.empty(len(terms), dtype=np.intp)
    term_rank[[term_ids[t] for t in terms]] = np.arange(len(terms))
    keys = term_rank[np.asarray(flat_terms, dtype=np.intp)]
    order = np.argsort(keys, kind="stable")
    ordinals = np.repeat(np.arange(len(ids), dtype=U32), distinct)[order]
    tfs = np.asarray(flat_tfs, dtype=U32)[order]
    per_term = np.bincount(keys, minlength=len(terms))
    return InvertedIndex(ids, doc_lengths, _split(terms, per_term, ordinals, tfs), config)


def _split(terms: list[str], per_term, ordinals: np.ndarray, tfs: np.ndarray) -> dict:
    """Term -> (ordinals, tfs) views of flat arrays holding ``per_term`` postings per term, in ``terms`` order."""
    ends = np.cumsum(per_term, dtype=np.int64).tolist()
    return {
        term: (ordinals[start:end], tfs[start:end])
        for term, start, end in zip(terms, [0, *ends], ends)
    }


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def _tf_weight(tf, doc_length, avg_doc_length: float, config: BM25Config):
    """Saturated term frequency; for scalars or, elementwise with the same rounding, arrays."""
    norm = 1.0 - config.b + config.b * (doc_length / avg_doc_length)
    return tf * (config.k1 + 1.0) / (tf + config.k1 * norm)


def bm25_score(index: InvertedIndex, query_tokens: Iterable[str], passage_id: str) -> float:
    """BM25 score of one passage for a query token multiset.

    Terms absent from the passage contribute 0; the score is additive
    over query-term multiplicity.
    """
    ordinal = index.ordinal(passage_id)
    doc_length = index.doc_lengths[ordinal]
    key = U32.type(ordinal)  # a Python int would make searchsorted copy the postings
    score = 0.0
    for term, multiplicity in Counter(query_tokens).items():
        postings = index.term_postings(term)
        if postings is None:
            continue
        ordinals, tfs = postings
        pos = int(ordinals.searchsorted(key))
        if pos == len(ordinals) or ordinals[pos] != key:
            continue
        tf = int(tfs[pos])
        idf = _idf(index.doc_count, len(ordinals))
        score += multiplicity * idf * _tf_weight(tf, doc_length, index.avg_doc_length, index.config)
    return score


def search_sparse(index: InvertedIndex, query_tokens: Iterable[str], k: int) -> RankedList:
    """Top-k BM25 retrieval; only documents with score > 0 are returned.

    Scores accumulate term by term in query order into one float64 slot
    per document, the same additions in the same order as
    :func:`bm25_score`, so the two agree bitwise.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    accum = np.zeros(index.doc_count)
    for term, multiplicity in Counter(query_tokens).items():
        postings = index.term_postings(term)
        if postings is None:
            continue
        ordinals, tfs = postings
        idf = _idf(index.doc_count, len(ordinals))
        weight = _tf_weight(tfs, index._lengths[ordinals], index.avg_doc_length, index.config)
        accum[ordinals] += multiplicity * idf * weight
    rows = np.flatnonzero(accum > 0.0)
    return top_k(rows, accum[rows], index.ids, index._id_ranks, k)


# ---------------------------------------------------------------------------
# Binary persistence. Layout (all integers little-endian):
#   magic "CQESPIDX", format version u32, then tagged sections, each
#   4-byte ASCII tag + u64 payload length + payload:
#     CONF  k1 f64, b f64
#     IDMP  count u64, then per id: u32 byte length + UTF-8 bytes
#     DLEN  count u64, then count x u32 token counts
#     POST  term count u64, then per term: u32 byte length + UTF-8 bytes,
#           u64 postings count, then pairs (ordinal u32, tf u32)
# Unknown sections are skipped on read.
# ---------------------------------------------------------------------------


def save_index(index: InvertedIndex, path: str) -> None:
    sections: list[tuple[bytes, bytes]] = []
    sections.append((b"CONF", struct.pack("<dd", index.config.k1, index.config.b)))

    parts = [struct.pack("<Q", index.doc_count)]
    for pid in index.ids:
        raw = pid.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)) + raw)
    sections.append((b"IDMP", b"".join(parts)))

    sections.append(
        (b"DLEN", struct.pack("<Q", index.doc_count) + np.asarray(index.doc_lengths, dtype=U32).tobytes())
    )

    parts = [struct.pack("<Q", index.term_count)]
    for term in sorted(index._postings):
        ordinals, tfs = index._postings[term]
        pairs = np.empty((len(ordinals), 2), dtype=U32)
        pairs[:, 0] = ordinals
        pairs[:, 1] = tfs
        raw = term.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)) + raw + struct.pack("<Q", len(pairs)) + pairs.tobytes())
    sections.append((b"POST", b"".join(parts)))

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        for tag, payload in sections:
            fh.write(tag)
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)


_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class _Reader:
    """Bounds-checked little-endian reads through one section of an index file."""

    def __init__(self, path: str, name: str, buf: memoryview):
        self.path, self.name, self.buf, self.pos = path, name, buf, 0

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self.path}: section {self.name}: {message}")

    def short(self, pos: int, nbytes: int) -> ValueError:
        return self.error(f"needs {nbytes} bytes at offset {pos}, {len(self.buf) - pos} left")

    def take(self, nbytes: int) -> memoryview:
        if nbytes > len(self.buf) - self.pos:
            raise self.short(self.pos, nbytes)
        self.pos += nbytes
        return self.buf[self.pos - nbytes : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def texts(self, n: int, runs: list[memoryview] | None = None) -> list[str]:
        """``n`` strings, each a u32 byte length and UTF-8 bytes, read in one loop.

        With ``runs``, each string is followed by a u64 count and that many
        8-byte (ordinal, tf) pairs, whose bytes are appended to ``runs``.
        """
        buf, end, pos = self.buf, len(self.buf), self.pos
        out = []
        for _ in range(n):
            if end - pos < 4:
                raise self.short(pos, 4)
            (nbytes,) = _U32.unpack_from(buf, pos)
            pos += 4
            if nbytes > end - pos:
                raise self.short(pos, nbytes)
            try:
                out.append(str(buf[pos : pos + nbytes], "utf-8"))
            except UnicodeDecodeError as exc:
                raise self.error(f"invalid UTF-8 at offset {pos}: {exc.reason}") from None
            pos += nbytes
            if runs is not None:
                if end - pos < 8:
                    raise self.short(pos, 8)
                (count,) = _U64.unpack_from(buf, pos)
                pos += 8
                if count * 8 > end - pos:
                    raise self.error(f"count {count} at offset {pos - 8} exceeds the section")
                runs.append(buf[pos : pos + 8 * count])
                pos += 8 * count
        self.pos = pos
        return out

    def count(self, item_bytes: int) -> int:
        """A u64 item count, checked against the bytes left for the items."""
        (n,) = self.unpack("<Q")
        if n * item_bytes > len(self.buf) - self.pos:
            raise self.error(f"count {n} at offset {self.pos - 8} exceeds the section")
        return n

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise self.error(f"{len(self.buf) - self.pos} trailing bytes")


def load_index(path: str) -> InvertedIndex:
    """Read an index written by :func:`save_index`.

    Every length, count and ordinal is checked against the file, so a
    truncated or corrupted file raises ValueError naming ``path``.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if data[:8] != MAGIC:
        raise ValueError(f"{path}: not a sparse index file (bad magic)")
    if len(data) < 12:
        raise ValueError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", data, 8)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported index format version {version}")

    sections: dict[bytes, memoryview] = {}
    offset = 12
    while offset < len(data):
        if len(data) - offset < 12:
            raise ValueError(f"{path}: truncated section header at byte {offset}")
        tag = bytes(data[offset : offset + 4])
        (length,) = struct.unpack_from("<Q", data, offset + 4)
        offset += 12
        if length > len(data) - offset:
            raise ValueError(
                f"{path}: section {tag!r} at byte {offset - 12} declares {length} bytes, "
                f"{len(data) - offset} left in the file"
            )
        sections[tag] = data[offset : offset + length]
        offset += length

    for tag in (b"CONF", b"IDMP", b"DLEN", b"POST"):
        if tag not in sections:
            raise ValueError(f"{path}: missing section {tag.decode()}")

    conf = _Reader(path, "CONF", sections[b"CONF"])
    k1, b = conf.unpack("<dd")
    conf.finish()
    try:
        config = BM25Config(k1, b)
    except ValueError as exc:
        raise conf.error(str(exc)) from None

    idmp = _Reader(path, "IDMP", sections[b"IDMP"])
    count = idmp.count(4)
    ids = idmp.texts(count)
    idmp.finish()
    if len(set(ids)) != count:
        raise idmp.error("duplicate passage ids")
    try:
        check_ids(ids, "passage id")
    except ValueError as exc:
        raise idmp.error(str(exc)) from None

    dlen = _Reader(path, "DLEN", sections[b"DLEN"])
    count_l = dlen.count(4)
    if count_l != count:
        raise dlen.error(f"doc length count {count_l} != id count {count}")
    doc_lengths = np.frombuffer(dlen.take(4 * count), dtype=U32).tolist()
    dlen.finish()

    post = _Reader(path, "POST", sections[b"POST"])
    n_terms = post.count(12)
    runs: list[memoryview] = []
    terms = post.texts(n_terms, runs)
    post.finish()
    if len(set(terms)) != len(terms):
        raise post.error("duplicate terms")
    counts = [len(run) // 8 for run in runs]
    pairs = np.frombuffer(b"".join(runs), dtype=U32).reshape(-1, 2)
    ordinals = np.ascontiguousarray(pairs[:, 0])
    tfs = np.ascontiguousarray(pairs[:, 1])
    # Flag a posting whose ordinal is out of range or not above its predecessor's in the same term.
    term_of = np.repeat(np.arange(len(terms)), counts)
    bad = ordinals >= count
    bad[1:] |= (term_of[1:] == term_of[:-1]) & (ordinals[1:] <= ordinals[:-1])
    if bad.any():
        term = terms[term_of[np.argmax(bad)]]
        raise post.error(f"postings of term {term!r} are out of range or not ascending")
    return InvertedIndex(ids, doc_lengths, _split(terms, counts, ordinals, tfs), config)
