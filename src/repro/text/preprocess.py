"""Text preprocessing pipeline for textual content units (TCUs).

The pipeline mirrors the one referenced by the paper (footnote 1, Sec.
4.1.2): lexical analysis, stopword removal and word stemming.  It is exposed
as a configurable :class:`TextPreprocessor` so ablation experiments can turn
individual stages on and off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import default_stopwords
from repro.text.tokenize import tokenize


@dataclass(frozen=True)
class PreprocessingConfig:
    """Configuration of the TCU preprocessing pipeline."""

    #: Minimum token length kept by the lexical analyser.
    min_token_length: int = 2
    #: Keep purely numeric tokens (disabled by default).
    keep_numbers: bool = False
    #: Remove stopwords (enabled by default).
    remove_stopwords: bool = True
    #: Apply Porter stemming (enabled by default).
    stem: bool = True
    #: Optional custom stopword set; ``None`` uses the built-in list.
    stopwords: Optional[FrozenSet[str]] = None


class TextPreprocessor:
    """Applies lexical analysis, stopword removal and stemming to raw text."""

    def __init__(self, config: PreprocessingConfig | None = None) -> None:
        self.config = config or PreprocessingConfig()
        self._stopwords = (
            self.config.stopwords
            if self.config.stopwords is not None
            else default_stopwords()
        )
        self._stemmer = PorterStemmer()

    def process(self, text: str) -> List[str]:
        """Return the list of index terms extracted from *text*.

        Order and duplicates are preserved because term frequency inside the
        TCU (``tf`` in the ttf.itf formula) is computed downstream.
        """
        tokens = tokenize(
            text,
            min_length=self.config.min_token_length,
            keep_numbers=self.config.keep_numbers,
        )
        if self.config.remove_stopwords:
            tokens = [token for token in tokens if token not in self._stopwords]
        if self.config.stem:
            tokens = [self._stemmer.stem(token) for token in tokens]
        return tokens


#: A module-level preprocessor with default settings, shared where no custom
#: configuration is needed (the object is stateless apart from its config).
DEFAULT_PREPROCESSOR = TextPreprocessor()
