"""Inverted index with BM25 scoring for bag-of-words retrieval.

Scoring uses the non-negative idf variant ln(1 + (N - df + 0.5)/(df + 0.5))
and the saturated term frequency tf*(k1+1)/(tf + k1*(1 - b + b*len/avglen)).
Query terms keep their multiplicity: repeated terms add weight.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import Corpus, check_ids, tokenize
from .ranking import PassageTable, RankedList, top_k

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

    The postings of all terms are two flat, C-contiguous u32 columns,
    ``ordinals`` and ``tfs`` (term frequencies); ``spans`` maps each term
    to the slice of its postings there, sorted by ordinal. Ordinals follow
    corpus order and are the rows of the passage ``table``, as are those of
    ``doc_lengths`` (u32).
    """

    def __init__(
        self,
        ids: list[str],
        doc_lengths: list[int] | np.ndarray,
        spans: dict[str, slice],
        ordinals: np.ndarray,
        tfs: np.ndarray,
        config: BM25Config,
    ):
        self.doc_lengths = np.array(doc_lengths, dtype=U32)
        if len(ids) != len(self.doc_lengths):
            raise ValueError("ids and doc_lengths must have equal length")
        self.table = PassageTable(list(ids))
        self.ids = self.table.ids
        self.config = config
        self.doc_count = len(ids)
        total = int(self.doc_lengths.sum(dtype=np.int64))  # exact, so the mean rounds once
        self.avg_doc_length = total / self.doc_count if self.doc_count else 0.0
        self.spans = spans
        self.ordinals = np.ascontiguousarray(ordinals, dtype=U32)
        self.tfs = np.ascontiguousarray(tfs, dtype=U32)

    @property
    def term_count(self) -> int:
        return len(self.spans)

    def term_postings(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(ordinals, term frequencies) of ``term``, or None when it is not indexed."""
        span = self.spans.get(term)
        return None if span is None else (self.ordinals[span], self.tfs[span])


def build_index(corpus: Corpus, config: BM25Config | None = None) -> InvertedIndex:
    """Index a tokenized corpus; the corpus must be non-empty.

    Each token is an int64 key ``term rank * doc count + ordinal``; one sort makes each posting a run of equal keys.
    """
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    ids, doc_lengths = [], []
    term_ids: defaultdict[str, int] = defaultdict()
    term_ids.default_factory = term_ids.__len__  # a new term gets the next id
    tokens = array("q")  # provisional term id of every token, in corpus order
    for passage in corpus:
        words = tokenize(passage.text)
        ids.append(passage.id)
        doc_lengths.append(len(words))
        tokens.extend(map(term_ids.__getitem__, words))
    terms, doc_count = sorted(term_ids), len(ids)
    if len(terms) * doc_count >= 2**63:
        raise ValueError(f"{len(terms)} terms x {doc_count} passages overflow the int64 posting keys")
    term_key = np.empty(len(terms), dtype=np.int64)  # by provisional id: rank in ``terms`` * doc count
    term_key[[term_ids[t] for t in terms]] = np.arange(0, len(terms) * doc_count, doc_count)
    keys = term_key[np.frombuffer(tokens, dtype=np.int64)]
    del tokens  # freed before np.repeat, so no more than two token-sized arrays are alive at once
    keys += np.repeat(np.arange(doc_count, dtype=np.int64), doc_lengths)
    keys.sort()
    first = np.ones(len(keys) + 1, dtype=bool)  # first[i]: token i starts a run; the last slot ends the last run
    np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
    starts = np.flatnonzero(first)
    tfs = np.diff(starts)
    ordinals = keys[starts[:-1]]  # one key per posting, cut to its ordinal once the terms are counted
    ends = np.cumsum(np.bincount(ordinals // doc_count, minlength=len(terms)))
    ordinals %= doc_count
    return InvertedIndex(ids, doc_lengths, _spans(terms, ends), ordinals, tfs, config or BM25Config())


def _spans(terms: list[str], ends: np.ndarray) -> dict[str, slice]:
    """Term -> slice of columns whose runs, one per term in ``terms`` order, end at ``ends``."""
    ends = ends.tolist()
    return dict(zip(terms, map(slice, [0, *ends], ends)))


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
    ordinal = int(index.table.rows([passage_id])[0])
    doc_length = int(index.doc_lengths[ordinal])
    ordinals = memoryview(index.ordinals)  # bisects in C with Python ints, no numpy call per term
    score = 0.0
    for term, multiplicity in Counter(query_tokens).items():
        span = index.spans.get(term)
        if span is None:
            continue
        pos = bisect_left(ordinals, ordinal, span.start, span.stop)
        if pos == span.stop or ordinals[pos] != ordinal:
            continue
        tf = int(index.tfs[pos])
        idf = _idf(index.doc_count, span.stop - span.start)
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
        weight = _tf_weight(tfs, index.doc_lengths[ordinals], index.avg_doc_length, index.config)
        accum[ordinals] += multiplicity * idf * weight
    rows = np.flatnonzero(accum > 0.0)
    return top_k(rows, accum[rows], index.table, k)


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

    sections.append((b"DLEN", struct.pack("<Q", index.doc_count) + index.doc_lengths.tobytes()))

    pairs = np.column_stack((index.ordinals, index.tfs))  # one (ordinal, tf) row per posting, as stored
    parts = [struct.pack("<Q", index.term_count)]
    for term, span in sorted(index.spans.items()):
        raw = term.encode("utf-8")
        run = pairs[span]
        parts.append(struct.pack("<I", len(raw)) + raw + struct.pack("<Q", len(run)) + run.tobytes())
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
_BLOCK_PAIRS = 1 << 17  # load_index joins pair runs about 1 MB at a time


class _Reader:
    """Bounds-checked little-endian reads through ``data[start:end]``; message offsets count from ``start``."""

    def __init__(self, where: str, data: mmap.mmap | bytearray, start: int = 0, end: int | None = None):
        self.where, self.data, self.start, self.pos = where, data, start, start
        self.end = len(data) if end is None else end

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self.where}: {message}")

    def short(self, pos: int, nbytes: int) -> ValueError:
        return self.error(f"needs {nbytes} bytes at offset {pos - self.start}, {self.end - pos} left")

    def skip(self, nbytes: int) -> int:
        if nbytes > self.end - self.pos:
            raise self.short(self.pos, nbytes)
        self.pos += nbytes
        return self.pos - nbytes

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.skip(struct.calcsize(fmt)))

    def texts(self, n: int, runs: list[memoryview] | None = None) -> list[str]:
        """``n`` strings, each a u32 byte length and UTF-8 bytes, read in one loop.

        With ``runs``, each string is followed by a u64 count and that many
        8-byte (ordinal, tf) pairs, whose bytes are appended to ``runs``.
        """
        buf, view, end, pos = self.data, memoryview(self.data), self.end, self.pos
        out = []
        for _ in range(n):
            if end - pos < 4:
                raise self.short(pos, 4)
            (nbytes,) = _U32.unpack_from(buf, pos)
            pos += 4
            if nbytes > end - pos:
                raise self.short(pos, nbytes)
            try:
                out.append(buf[pos : pos + nbytes].decode())
            except UnicodeDecodeError as exc:
                raise self.error(f"invalid UTF-8 at offset {pos - self.start}: {exc.reason}") from None
            pos += nbytes
            if runs is not None:
                if end - pos < 8:
                    raise self.short(pos, 8)
                (count,) = _U64.unpack_from(buf, pos)
                pos += 8
                if count * 8 > end - pos:
                    raise self.error(f"count {count} at offset {pos - 8 - self.start} exceeds the section")
                runs.append(view[pos : pos + 8 * count])
                pos += 8 * count
        self.pos = pos
        return out

    def count(self, item_bytes: int) -> int:
        """A u64 item count, checked against the bytes left for the items."""
        (n,) = self.unpack("<Q")
        if n * item_bytes > self.end - self.pos:
            raise self.error(f"count {n} at offset {self.pos - 8 - self.start} exceeds the section")
        return n

    def finish(self) -> None:
        if self.pos != self.end:
            raise self.error(f"{self.end - self.pos} trailing bytes")


def load_index(path: str) -> InvertedIndex:
    """Read an index written by :func:`save_index`.

    Every length, count and ordinal is checked against the file, so a
    truncated or corrupted file raises ValueError naming ``path``. The
    file is read into an anonymous mapping, which is unmapped when the
    load returns, so no dead copy stays in the heap across reloads.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        data = mmap.mmap(-1, size) if size else bytearray()  # a 0-byte map is refused; bad magic follows
        if fh.readinto(data) != size or fh.read(1):
            raise ValueError(f"{path}: changed while being read")
    if data[:8] != MAGIC:
        raise ValueError(f"{path}: not a sparse index file (bad magic)")
    file = _Reader(path, data)
    (version,) = file.unpack("<8xI")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported index format version {version}")
    sections: dict[bytes, tuple[int, int]] = {}
    while file.pos < file.end:
        tag, length = file.unpack("<4sQ")
        if tag in sections:
            raise ValueError(f"{path}: duplicate section {tag.decode('ascii', 'backslashreplace')}")
        sections[tag] = (file.skip(length), file.pos)

    def section(tag: bytes) -> _Reader:
        if tag not in sections:
            raise ValueError(f"{path}: missing section {tag.decode()}")
        return _Reader(f"{path}: section {tag.decode()}", data, *sections[tag])

    conf = section(b"CONF")
    k1, b = conf.unpack("<dd")
    conf.finish()
    try:
        config = BM25Config(k1, b)
    except ValueError as exc:
        raise conf.error(str(exc)) from None

    idmp = section(b"IDMP")
    count = idmp.count(4)
    ids = idmp.texts(count)
    idmp.finish()
    try:
        check_ids(ids, "passage id")
    except ValueError as exc:
        raise idmp.error(str(exc)) from None

    dlen = section(b"DLEN")
    count_l = dlen.count(4)
    if count_l != count:
        raise dlen.error(f"doc length count {count_l} != id count {count}")
    doc_lengths = np.frombuffer(data, U32, count, dlen.skip(4 * count))
    dlen.finish()

    post = section(b"POST")
    n_terms = post.count(12)
    runs: list[memoryview] = []
    terms = post.texts(n_terms, runs)
    post.finish()
    if len(set(terms)) != len(terms):
        raise post.error("duplicate terms")
    bounds = np.cumsum([0, *map(len, runs)], dtype=np.int64) >> 3  # run t holds postings bounds[t]:bounds[t + 1]
    columns = np.empty((2, bounds[-1]), dtype=U32)  # rows: the ordinal and the tf column
    first = 0
    while first < n_terms:  # whole runs, about _BLOCK_PAIRS postings at a time
        stop = max(first + 1, bounds.searchsorted(bounds[first] + _BLOCK_PAIRS, "right") - 1)
        columns[:, bounds[first] : bounds[stop]] = np.frombuffer(b"".join(runs[first:stop]), U32).reshape(-1, 2).T
        first = stop
    ordinals, tfs = columns
    # ok[p]: posting p is in range and starts its term's run or lies above its predecessor.
    # The last slot takes the starts of trailing empty runs.
    ok = np.ones(len(ordinals) + 1, dtype=bool)
    np.greater(ordinals[1:], ordinals[:-1], out=ok[1:-1])
    ok[bounds[:-1]] = True
    ok[:-1] &= ordinals < count
    if not ok.all():
        term = terms[bounds.searchsorted(ok.argmin(), "right") - 1]
        raise post.error(f"postings of term {term!r} are out of range or not ascending")
    return InvertedIndex(ids, doc_lengths, _spans(terms, bounds[1:]), ordinals, tfs, config)
