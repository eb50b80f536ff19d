"""Conversational passage retrieval with contextualized query embeddings.

One library covering the full desk-scale retrieval stack: a JSON-lines
passage corpus, a BM25 inverted index, an exact inner-product embedding
store, token-level query embedding math (pooling, score decomposition,
norm-thresholded rewriting), sparse-dense fusion, weak-label training of
a toy query encoder, and TREC-style evaluation.
"""
