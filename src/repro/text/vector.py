"""Sparse term vectors for textual content units (TCUs).

TCU vectors are typically extremely sparse (Sec. 4.1.2: "proper structures
can be exploited to drastically reduce the actual dimensionality of each TCU
vector"), so the representation is a dictionary mapping term identifiers to
weights.  The class provides exactly the operations the clustering algorithms
need: dot product, norm, cosine similarity, scaling and merging.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Mapping, Tuple


class SparseVector:
    """An immutable-ish sparse vector keyed by integer term identifiers.

    Zero weights are never stored; the empty vector has norm 0 and a cosine
    similarity of 0 against everything (including itself), matching the
    convention used for empty TCUs.
    """

    __slots__ = ("_weights", "_norm")

    def __init__(self, weights: Mapping[int, float] | None = None) -> None:
        self._weights: Dict[int, float] = {}
        if weights:
            for term, weight in weights.items():
                if weight:
                    self._weights[int(term)] = float(weight)
        self._norm: float | None = None

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._weights)

    def __bool__(self) -> bool:
        return bool(self._weights)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return iter(self._weights.items())

    def __contains__(self, term: int) -> bool:
        return term in self._weights

    def get(self, term: int, default: float = 0.0) -> float:
        return self._weights.get(term, default)

    def items(self) -> Iterable[Tuple[int, float]]:
        return self._weights.items()

    def terms(self) -> Iterable[int]:
        return self._weights.keys()

    def to_dict(self) -> Dict[int, float]:
        """Return a copy of the underlying term->weight mapping."""
        return dict(self._weights)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def norm(self) -> float:
        """Return the Euclidean norm (cached after the first call)."""
        if self._norm is None:
            self._norm = math.sqrt(sum(w * w for w in self._weights.values()))
        return self._norm

    def dot(self, other: "SparseVector") -> float:
        """Return the dot product with *other* (iterates the smaller vector)."""
        if len(self._weights) > len(other._weights):
            return other.dot(self)
        total = 0.0
        other_weights = other._weights
        for term, weight in self._weights.items():
            other_weight = other_weights.get(term)
            if other_weight is not None:
                total += weight * other_weight
        return total

    def cosine(self, other: "SparseVector") -> float:
        """Return the cosine similarity with *other* (0 when either is empty)."""
        denominator = self.norm() * other.norm()
        if denominator == 0.0:
            return 0.0
        value = self.dot(other) / denominator
        # numerical guard: cosine is mathematically within [0, 1] for
        # non-negative weights, clamp tiny floating point excursions.
        if value > 1.0:
            return 1.0
        if value < 0.0:
            return 0.0
        return value

    def scaled(self, factor: float) -> "SparseVector":
        """Return a new vector with every weight multiplied by *factor*."""
        return SparseVector({t: w * factor for t, w in self._weights.items()})

    def added(self, other: "SparseVector") -> "SparseVector":
        """Return the element-wise sum of this vector and *other*."""
        merged = dict(self._weights)
        for term, weight in other._weights.items():
            merged[term] = merged.get(term, 0.0) + weight
        return SparseVector(merged)

    # ------------------------------------------------------------------ #
    # Equality / representation
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self) -> int:
        return hash(frozenset(self._weights.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = dict(sorted(self._weights.items())[:4])
        return f"SparseVector({len(self._weights)} terms, {preview}...)"


def merge_vectors(vectors: Iterable[SparseVector]) -> SparseVector:
    """Return the element-wise sum of all *vectors* (empty input -> empty)."""
    merged: Dict[int, float] = {}
    for vector in vectors:
        for term, weight in vector.items():
            merged[term] = merged.get(term, 0.0) + weight
    return SparseVector(merged)
