"""Term vocabulary: a bidirectional mapping between index terms and ids.

The vocabulary ``V`` (paper Sec. 4.1.2) is the set of index terms extracted
from all TCUs in the collection of tree tuples; TCU vectors are indexed by
the integer identifiers assigned here.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional


class Vocabulary:
    """An append-only bidirectional term <-> id mapping.

    Identifiers are assigned densely starting from 0 in order of first
    appearance, which makes the mapping deterministic for a fixed corpus
    traversal order (important for reproducible experiments).
    """

    def __init__(self, terms: Optional[Iterable[str]] = None) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []
        if terms:
            for term in terms:
                self.add(term)

    # ------------------------------------------------------------------ #
    def add(self, term: str) -> int:
        """Return the identifier of *term*, adding it if unseen."""
        term_id = self._term_to_id.get(term)
        if term_id is None:
            term_id = len(self._id_to_term)
            self._term_to_id[term] = term_id
            self._id_to_term.append(term)
        return term_id

    def id_of(self, term: str) -> Optional[int]:
        """Return the identifier of *term*, or ``None`` when unknown."""
        return self._term_to_id.get(term)

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)

    def terms(self) -> List[str]:
        """Return all terms in identifier order."""
        return list(self._id_to_term)
