"""Conversational passage retrieval with contextualized query embeddings.

One library covering the full desk-scale retrieval stack: a JSON-lines
passage corpus, a BM25 inverted index, an exact inner-product embedding
store, token-level query embedding math (pooling, score decomposition,
norm-thresholded rewriting), sparse-dense fusion, weak-label training of
a toy query encoder, and TREC-style evaluation.
"""

from .corpus import Corpus, Passage, load_corpus, read_jsonl, save_corpus, tokenize
from .core import (
    RewriteConfig,
    Session,
    TokenEmbeddingMatrix,
    Turn,
    decompose,
    decontextualize,
    load_sessions,
    load_token_matrices,
    pool,
    save_sessions,
    save_token_matrices,
    score,
    token_norm_report,
)
from .dense import PassageEmbeddingStore, load_embeddings, save_embeddings, search_dense, search_dense_many
from .evaluation import (
    MetricReport,
    Qrels,
    ndcg,
    paired_t_test,
    read_qrels,
    read_run,
    recall_at,
    win_tie,
    write_qrels,
    write_run,
)
from .fusion import FusionConfig, hybrid_combine, hybrid_search, rrf
from .ranking import RankedEntry, RankedList
from .sparse import (
    BM25Config,
    InvertedIndex,
    bm25_score,
    build_index,
    load_index,
    save_index,
    search_sparse,
)
from .trainer import (
    CosineTeacher,
    HashingTextEmbedder,
    TableTeacher,
    ToyQueryEncoder,
    TrainConfig,
    TrainResult,
    TrainingInstance,
    TripletSampler,
    TurnLabels,
    batch_gradients,
    build_weak_labels,
    contrastive_loss,
    distill_loss,
    load_weak_labels,
    save_weak_labels,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
