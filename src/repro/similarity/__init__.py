"""Similarity measures for XML tree tuple items and transactions (Sec. 4.1)."""

from repro.similarity.backend import (
    DEFAULT_BACKEND,
    BackendUnavailableError,
    NumpyBackend,
    PythonBackend,
    SimilarityBackend,
    create_backend,
)
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.content import content_similarity, cosine_similarity
from repro.similarity.item import SimilarityConfig, gamma_matched, item_similarity
from repro.similarity.structural import (
    dirichlet,
    path_similarity,
    positional_tag_score,
    structural_similarity,
    tag_path_similarity,
)
from repro.similarity.transaction import (
    SimilarityEngine,
    gamma_shared_items,
    transaction_similarity,
)

__all__ = [
    "DEFAULT_BACKEND",
    "BackendUnavailableError",
    "SimilarityBackend",
    "PythonBackend",
    "NumpyBackend",
    "create_backend",
    "dirichlet",
    "positional_tag_score",
    "tag_path_similarity",
    "structural_similarity",
    "path_similarity",
    "cosine_similarity",
    "content_similarity",
    "SimilarityConfig",
    "item_similarity",
    "gamma_matched",
    "TagPathSimilarityCache",
    "SimilarityEngine",
    "transaction_similarity",
    "gamma_shared_items",
]
