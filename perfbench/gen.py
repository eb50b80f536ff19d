"""Seeded synthetic inputs for the benchmark, written through cqe's own save functions.

    python3 perfbench/gen.py --shape 100k --seed 1 --out DIR

Writes into DIR: corpus.jsonl, index.bin, store.{json,f32,ids},
encoder.{json,emb.f32,proj.f32,vocab}, sessions.jsonl, qrels.txt and
meta.json (shape facts plus the document frequency of every term, so the
benchmark can count postings scanned without looking inside the index).
The same shape and seed always give the same bytes.

Corpus: passage terms are drawn from a Zipf-Mandelbrot distribution, so
a few head terms sit in most passages and the tail is rare. Each session
has a topic term that appears only in its cluster of passages; those
passages' store vectors lean towards the topic's embedding direction and
are the session's qrels (grade 3 for the half that leans most, 2 for the rest).

Sessions: every session has four turns. Each turn position draws its
terms from fixed Zipf rank bands, each band with one planted token norm,
and the rank within a band depends on the session but not on the seed.
A different seed renames and reshuffles everything, but session i costs
about the same for every seed, while turns within a session range from a
few to a few hundred milliseconds of sparse search.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import scipy.sparse as sp

SHAPES = {
    # n: passages, vocab: Zipf vocabulary, sessions: sessions (= topic clusters)
    "100k": dict(n=100_000, vocab=30_000, dim=128, sessions=60, cluster=12, length=(20, 40)),
    "10k": dict(n=10_000, vocab=8_000, dim=128, sessions=25, cluster=12, length=(20, 40)),
    "tiny": dict(n=600, vocab=400, dim=16, sessions=6, cluster=5, length=(8, 16)),
}

ZIPF_EXPONENT = 1.0
ZIPF_OFFSET = 2.7
TOPIC_NORM = 20.0

# Per turn position: the Zipf rank bands its utterance draws from. Each
# band carries one planted token norm; hybrid rewriting keeps context
# tokens whose norm reaches gamma 12.0, so the bands with norm >= 12 stay
# in later turns' bags and add their postings to every later search.
TURN_BANDS = [
    [(30, 300), (300, 3000)],  # turn 1 also carries the session's topic term
    [(3, 8), (300, 3000)],
    [(8, 20), (30, 300)],
    [(0, 3), (300, 3000)],
]
BAND_NORMS = {(0, 3): 8.0, (3, 8): 12.8, (8, 20): 12.5, (30, 300): 13.0, (300, 3000): 6.0}


def _scheduled_rank(band: tuple[int, int], slot: int, session: int, vocab: int) -> int:
    """A rank in ``band`` that depends on the session and slot but not on the seed.

    Sessions spread over each band by golden-ratio steps, so the first few
    sessions already cover it and cost the same for every seed.
    """
    lo, hi = band[0], min(band[1], vocab)
    return lo + int(((session + 1) * 0.6180339887498949 + slot * 0.37) % 1.0 * (hi - lo))


def _zipf_probs(vocab: int) -> np.ndarray:
    p = 1.0 / (np.arange(vocab) + ZIPF_OFFSET) ** ZIPF_EXPONENT
    return p / p.sum()


def generate(shape: str, seed: int, out: str) -> dict:
    from cqe.core import Session, Turn, save_sessions
    from cqe.corpus import Corpus, Passage, save_corpus
    from cqe.dense import PassageEmbeddingStore, save_embeddings
    from cqe.evaluation import write_qrels
    from cqe.sparse import build_index, save_index
    from cqe.trainer import UNK_TOKEN, HashingTextEmbedder, ToyQueryEncoder

    cfg = SHAPES[shape]
    n, vocab, dim = cfg["n"], cfg["vocab"], cfg["dim"]
    n_sessions, cluster = cfg["sessions"], cfg["cluster"]
    rng = np.random.default_rng([seed, n])
    os.makedirs(out, exist_ok=True)

    # Term strings are seeded so that a term's rank is not visible in its name.
    names = np.array([f"w{j}" for j in rng.permutation(vocab) + 10_000])
    topics = [f"topic{s}x{seed % 1000}" for s in range(n_sessions)]

    lengths = rng.integers(cfg["length"][0], cfg["length"][1] + 1, size=n)
    tokens = rng.choice(vocab, size=int(lengths.sum()), p=_zipf_probs(vocab))
    starts = np.concatenate([[0], np.cumsum(lengths)])

    # Cluster passages: a random subset of ordinals holding their topic, twice in grade-3 ones.
    members = rng.permutation(n)[: n_sessions * cluster].reshape(n_sessions, cluster)
    topic_of = np.full(n, -1)
    rank_in_cluster = np.full(n, -1)
    for s in range(n_sessions):
        topic_of[members[s]] = s
        rank_in_cluster[members[s]] = np.arange(cluster)
    # The first half of each cluster leans further towards its topic and is graded 3.
    half = cluster // 2
    lean = np.concatenate(
        [rng.uniform(0.8, 1.0, size=(n_sessions, half)), rng.uniform(0.3, 0.5, size=(n_sessions, cluster - half))],
        axis=1,
    )

    ids = [f"p{i:06d}" for i in range(n)]
    passages = []
    for i in range(n):
        words = names[tokens[starts[i] : starts[i + 1]]].tolist()
        if topic_of[i] >= 0:
            for _ in range(2 if rank_in_cluster[i] < half else 1):
                words.insert(int(rng.integers(len(words) + 1)), topics[topic_of[i]])
        passages.append(Passage(ids[i], " ".join(words)))
    corpus = Corpus(passages)
    save_corpus(corpus, os.path.join(out, "corpus.jsonl"))

    index = build_index(corpus)
    save_index(index, os.path.join(out, "index.bin"))

    # Store: mean of the teacher's hashed token vectors per passage, pulled
    # towards the topic vector for cluster passages, then unit-normalised.
    embedder = HashingTextEmbedder(dim)
    term_vecs = np.stack([embedder.token_vector(t) for t in names])
    doc_of_token = np.repeat(np.arange(n), lengths)
    counts = sp.csr_matrix(
        (np.ones(tokens.size), (doc_of_token, tokens)), shape=(n, vocab)
    )
    df = np.asarray((counts > 0).sum(axis=0)).ravel()
    vectors = np.asarray(counts @ term_vecs) / lengths[:, None]
    for s, topic in enumerate(topics):
        vectors[members[s]] += lean[s][:, None] * embedder.token_vector(topic)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    save_embeddings(
        PassageEmbeddingStore(ids, vectors.astype(np.float32)), os.path.join(out, "store.json")
    )

    sessions = []
    qrels: dict[str, dict[str, int]] = {}
    norm_of: dict[str, float] = {}
    for s, topic in enumerate(topics):
        turns = []
        for position, bands in enumerate(TURN_BANDS):
            words = [topic] if position == 0 else []
            for slot, band in enumerate(bands):
                term = str(names[_scheduled_rank(band, slot, s, vocab)])
                norm_of[term] = BAND_NORMS[band]
                words.append(term)
            utterance = " ".join(words)
            rewrite = utterance if position == 0 else f"{utterance} {topic}"
            turns.append(Turn(utterance, rewrite))
        session = Session(f"s{s}", turns)
        sessions.append(session)
        judged = {ids[members[s][j]]: (3 if j < half else 2) for j in range(cluster)}
        for t in range(len(turns)):
            qrels[session.qid(t)] = judged
    save_sessions(sessions, os.path.join(out, "sessions.jsonl"))
    write_qrels(qrels, os.path.join(out, "qrels.txt"))

    # Encoder: each row is the teacher's token direction at its planted norm.
    for topic in topics:
        norm_of[topic] = TOPIC_NORM
    enc_vocab = {UNK_TOKEN: 0}
    rows = [rng.standard_normal(dim) / np.sqrt(dim)]
    for term in sorted(norm_of):
        enc_vocab[term] = len(enc_vocab)
        rows.append(embedder.token_vector(term) * norm_of[term])
    ToyQueryEncoder(enc_vocab, np.stack(rows), np.eye(dim)).save(os.path.join(out, "encoder.json"))

    df_table = {str(names[j]): int(df[j]) for j in range(vocab) if df[j]}
    for topic in topics:
        df_table[topic] = cluster
    meta = {
        "shape": shape,
        "seed": seed,
        "passages": n,
        "dim": dim,
        "vocab_size": len(df_table),
        "total_postings": int(sum(df_table.values())),
        "index_bytes": os.path.getsize(os.path.join(out, "index.bin")),
        "sessions": n_sessions,
        "turns": n_sessions * len(TURN_BANDS),
        "df": df_table,
    }
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True)
    return meta


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shape", choices=sorted(SHAPES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.shape, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
