"""Text processing substrate: tokenization, stemming, vectors, ttf.itf."""

from repro.text.preprocess import (
    DEFAULT_PREPROCESSOR,
    PreprocessingConfig,
    TextPreprocessor,
)
from repro.text.stemmer import PorterStemmer, stem, stem_tokens
from repro.text.stopwords import DOMAIN_STOPWORDS, ENGLISH_STOPWORDS, default_stopwords
from repro.text.tokenize import character_ngrams, tokenize
from repro.text.vector import SparseVector, centroid_vector, merge_vectors
from repro.text.vocabulary import FrozenVocabulary, Vocabulary
from repro.text.weighting import CorpusTermStatistics, TtfItfWeighter

__all__ = [
    "tokenize",
    "character_ngrams",
    "ENGLISH_STOPWORDS",
    "DOMAIN_STOPWORDS",
    "default_stopwords",
    "PorterStemmer",
    "stem",
    "stem_tokens",
    "SparseVector",
    "merge_vectors",
    "centroid_vector",
    "Vocabulary",
    "FrozenVocabulary",
    "PreprocessingConfig",
    "TextPreprocessor",
    "DEFAULT_PREPROCESSOR",
    "CorpusTermStatistics",
    "TtfItfWeighter",
]
