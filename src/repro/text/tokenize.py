"""Lexical analysis of textual content units (TCUs).

The paper preprocesses every ``#PCDATA`` element content / attribute value
with "language-specific operations such as lexical analysis, removal of
stopwords and word stemming" (Sec. 4.1.2, footnote 1).  This module provides
the lexical-analysis half: lower-casing, splitting on non-alphanumeric
characters, and filtering of tokens that are too short or purely numeric.
"""

from __future__ import annotations

import re
from typing import List

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9']*|[0-9]+")


def tokenize(text: str, min_length: int = 2, keep_numbers: bool = False) -> List[str]:
    """Split raw text into lower-cased tokens.

    Parameters
    ----------
    text:
        Raw TCU text.
    min_length:
        Minimum token length; shorter alphabetic tokens are discarded.
    keep_numbers:
        When ``False`` (default) purely numeric tokens are dropped -- numbers
        such as years or page ranges behave as identifiers, not as terms, in
        the paper's corpora.

    Returns
    -------
    list of str
        Tokens in order of occurrence (duplicates preserved).
    """
    if not text:
        return []
    tokens: List[str] = []
    for match in _TOKEN_RE.finditer(text.lower()):
        token = match.group(0)
        if token.isdigit():
            if keep_numbers:
                tokens.append(token)
            continue
        token = token.strip("'")
        if len(token) >= min_length:
            tokens.append(token)
    return tokens
