"""Term weighting for TCUs: the ttf.itf scheme (paper Sec. 4.1.2).

The *Tree tuple Term Frequency -- Inverse Tree tuple Frequency* weight of a
term ``w_j`` occurring in a TCU ``u_i`` of a tree tuple ``tau`` extracted
from tree ``XT`` is defined as::

    ttf.itf(w_j, u_i | tau) = tf(w_j, u_i)
                              * exp(n_{j,tau} / N_tau)
                              * (n_{j,XT} / N_XT)
                              * ln(N_T / n_{j,T})

where ``tf`` is the number of occurrences of the term inside the TCU, ``N_x``
is the number of TCUs in scope ``x`` and ``n_{j,x}`` is the number of TCUs in
scope ``x`` that contain the term; the scopes are the tree tuple (``tau``),
the document tree (``XT``) and the whole collection of tree tuples (``T``).

The weight therefore rewards terms that are frequent inside the TCU, popular
across the TCUs of the same transaction and of the same document, and rare
across the collection.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Sequence, Tuple

from repro.text.vector import SparseVector
from repro.text.vocabulary import Vocabulary


class CorpusTermStatistics:
    """Accumulates TCU-level term statistics at the three ttf.itf scopes.

    The accumulator is filled once per corpus (one :meth:`add_tcu` call per
    TCU) and then queried by :class:`TtfItfWeighter`.  All counters operate
    on *TCU containment* -- i.e. they count in how many TCUs of a scope a
    term occurs -- matching the paper's ``n_{j,*} / N_*`` definitions.
    """

    def __init__(self) -> None:
        self.vocabulary = Vocabulary()
        # number of TCUs per scope
        self.tcus_per_tuple: Dict[str, int] = {}
        self.tcus_per_doc: Dict[str, int] = {}
        self.total_tcus: int = 0
        # per-term containment counters per scope
        self._term_tcus_per_tuple: Dict[Tuple[str, str], int] = {}
        self._term_tcus_per_doc: Dict[Tuple[str, str], int] = {}
        self._term_tcus_collection: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def add_tcu(self, tuple_id: str, doc_id: str, terms: Sequence[str]) -> None:
        """Register one preprocessed TCU."""
        self.total_tcus += 1
        self.tcus_per_tuple[tuple_id] = self.tcus_per_tuple.get(tuple_id, 0) + 1
        self.tcus_per_doc[doc_id] = self.tcus_per_doc.get(doc_id, 0) + 1
        for term in set(terms):
            self.intern_term(term)
            key_tuple = (tuple_id, term)
            key_doc = (doc_id, term)
            self._term_tcus_per_tuple[key_tuple] = (
                self._term_tcus_per_tuple.get(key_tuple, 0) + 1
            )
            self._term_tcus_per_doc[key_doc] = (
                self._term_tcus_per_doc.get(key_doc, 0) + 1
            )
            self._term_tcus_collection[term] = (
                self._term_tcus_collection.get(term, 0) + 1
            )

    def intern_term(self, term: str) -> None:
        """Give *term* an identifier in :attr:`vocabulary`."""
        self.vocabulary.add(term)

    # ------------------------------------------------------------------ #
    # Scope queries
    # ------------------------------------------------------------------ #
    def tcus_in_tuple(self, tuple_id: str) -> int:
        """``N_tau``: number of TCUs of tree tuple *tuple_id*."""
        return self.tcus_per_tuple.get(tuple_id, 0)

    def tcus_in_doc(self, doc_id: str) -> int:
        """``N_XT``: number of TCUs of document *doc_id*."""
        return self.tcus_per_doc.get(doc_id, 0)

    def tcus_in_collection(self) -> int:
        """``N_T``: number of TCUs in the whole collection."""
        return self.total_tcus

    def term_tcus_in_tuple(self, term: str, tuple_id: str) -> int:
        """``n_{j,tau}``: TCUs of the tuple containing *term*."""
        return self._term_tcus_per_tuple.get((tuple_id, term), 0)

    def term_tcus_in_doc(self, term: str, doc_id: str) -> int:
        """``n_{j,XT}``: TCUs of the document containing *term*."""
        return self._term_tcus_per_doc.get((doc_id, term), 0)

    def term_tcus_in_collection(self, term: str) -> int:
        """``n_{j,T}``: TCUs of the collection containing *term*."""
        return self._term_tcus_collection.get(term, 0)


class TtfItfWeighter:
    """Computes ttf.itf-weighted :class:`SparseVector` representations."""

    def __init__(self, statistics: CorpusTermStatistics) -> None:
        self.statistics = statistics

    def weight(self, term: str, tf: int, tuple_id: str, doc_id: str) -> float:
        """Return the ttf.itf weight of *term* given its in-TCU frequency."""
        stats = self.statistics
        n_tau = stats.tcus_in_tuple(tuple_id)
        n_doc = stats.tcus_in_doc(doc_id)
        n_coll = stats.tcus_in_collection()
        if tf <= 0 or n_tau == 0 or n_doc == 0 or n_coll == 0:
            return 0.0
        n_j_tau = stats.term_tcus_in_tuple(term, tuple_id)
        n_j_doc = stats.term_tcus_in_doc(term, doc_id)
        n_j_coll = stats.term_tcus_in_collection(term)
        if n_j_coll == 0:
            return 0.0
        tuple_popularity = math.exp(n_j_tau / n_tau)
        doc_popularity = n_j_doc / n_doc
        rarity = math.log(n_coll / n_j_coll) if n_coll > n_j_coll else 0.0
        return tf * tuple_popularity * doc_popularity * rarity

    def vector(self, terms: Sequence[str], tuple_id: str, doc_id: str) -> SparseVector:
        """Return the ttf.itf-weighted TCU vector of a term sequence."""
        counts = Counter(terms)
        weights: Dict[int, float] = {}
        for term, tf in counts.items():
            term_id = self.statistics.vocabulary.id_of(term)
            if term_id is None:
                continue
            value = self.weight(term, tf, tuple_id, doc_id)
            if value > 0.0:
                weights[term_id] = value
        return SparseVector(weights)
