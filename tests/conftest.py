"""Shared fixtures: the planted dataset and a trained toy encoder.

Training runs once per session; trainer tests and the acceptance suite
all compare against the same untrained/trained encoder pair.
"""

from __future__ import annotations

import pytest

from cqe.core import pool
from cqe.corpus import tokenize
from cqe.dense import search_dense
from cqe.evaluation import recall_at
from cqe.sparse import build_index
from cqe.synth import make_planted_dataset
from cqe.trainer import ToyQueryEncoder, TrainConfig, build_weak_labels, train


@pytest.fixture(scope="session")
def planted():
    return make_planted_dataset()


@pytest.fixture(scope="session")
def planted_index(planted):
    return build_index(planted.corpus)


@pytest.fixture(scope="session")
def planted_labels(planted, planted_index):
    return build_weak_labels(planted.sessions, planted_index, planted.teacher)


def session_vocab(sessions):
    return [tok for s in sessions for t in s.turns for tok in tokenize(t.raw_utterance)]


def holds_no_ids(ranked):
    """True when no attribute of ``ranked`` is a list, so its ids can only be built on read."""
    return not any(isinstance(value, list) for value in vars(ranked).values())


def dense_recall(encoder, dataset, qids, cutoff=10):
    """Mean dense recall over the given turns, encoded with full context."""
    by_qid = {s.qid(i): (s, i) for s in dataset.sessions for i in range(len(s.turns))}
    run = {}
    for qid in qids:
        session, i = by_qid[qid]
        context, query = session.tokens_for_turn(i)
        run[qid] = search_dense(dataset.store, pool(encoder.encode(context, query)), cutoff)
    qrels = {qid: dataset.qrels[qid] for qid in qids}
    return recall_at(run, qrels, cutoff=cutoff).mean


@pytest.fixture(scope="session")
def planted_training(planted, planted_labels):
    """(untrained encoder, trained encoder, training-label subset)."""
    held = set(planted.held_out_qids)
    train_labels = [t for t in planted_labels if t.qid not in held]
    encoder = ToyQueryEncoder.create(session_vocab(planted.sessions), dim=planted.store.dim, seed=0)
    untrained = encoder.copy()
    train(encoder, train_labels, planted.sessions, planted.store, TrainConfig(seed=0))
    return untrained, encoder, train_labels
