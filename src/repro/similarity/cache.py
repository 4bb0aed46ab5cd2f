"""Caching of pairwise tag-path structural similarities.

The complexity analysis of the paper (Sec. 4.3.2) observes that, since the
input XML schema is fixed, the structural similarity between every pair of
maximal tag paths can be computed once and reused; this reduces the cost of
item ranking from quadratic in the number of items to quadratic in the (much
smaller) number of distinct tag paths.  :class:`TagPathSimilarityCache`
implements exactly that memoisation and is shared by the similarity engine,
the representative computation and the clustering algorithms.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.similarity.structural import tag_path_similarity
from repro.xmlmodel.paths import XMLPath


class TagPathSimilarityCache:
    """Memoises structural similarities between maximal tag paths.

    The cache is symmetric: ``(p, q)`` and ``(q, p)`` share one entry.  It can
    be pre-populated with :meth:`precompute` (the strategy suggested by the
    complexity analysis) or filled lazily on first use.

    Entries are always *computed* in canonical key order, not in the
    caller's argument order: :func:`tag_path_similarity` sums the two
    directed matching passes in argument order, so swapping its operands can
    change the result by one ULP, and a cache filled in query order would
    return history-dependent floats for mathematically identical pairs --
    enough to flip exact argmax ties in the gamma matching.  Canonical-order
    evaluation makes every similarity a pure function of the two paths,
    which the backend parity harness relies on.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[XMLPath, XMLPath], float] = {}
        self.hits = 0
        self.misses = 0
        self.precomputed = 0

    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(path_a: XMLPath, path_b: XMLPath) -> Tuple[XMLPath, XMLPath]:
        return (path_a, path_b) if path_a <= path_b else (path_b, path_a)

    def similarity(self, path_a: XMLPath, path_b: XMLPath) -> float:
        """Return the structural similarity of two *tag* paths (cached)."""
        key = self._key(path_a, path_b)
        value = self._cache.get(key)
        if value is None:
            self.misses += 1
            value = tag_path_similarity(key[0].steps, key[1].steps)
            self._cache[key] = value
        else:
            self.hits += 1
        return value

    def item_similarity(self, item_a, item_b) -> float:
        """Return the cached structural similarity of two items' tag paths."""
        return self.similarity(item_a.tag_path, item_b.tag_path)

    def precompute(self, tag_paths: Iterable[XMLPath]) -> int:
        """Precompute all pairwise similarities over *tag_paths*.

        Every newly inserted entry is counted in :attr:`precomputed`
        (reported by :meth:`stats`) rather than as a miss: precomputed
        entries are the up-front work Sec. 4.3.2 prescribes, so lookups
        that land on them are genuine hits -- but without this separate
        counter a precomputed run would report ``misses=0`` and a
        meaningless 100% hit rate, hiding how much of the cache was built
        eagerly versus on demand.

        Returns the number of cache entries after precomputation.
        """
        paths = list(dict.fromkeys(tag_paths))
        for i, path_a in enumerate(paths):
            for path_b in paths[i:]:
                key = self._key(path_a, path_b)
                if key not in self._cache:
                    self._cache[key] = tag_path_similarity(key[0].steps, key[1].steps)
                    self.precomputed += 1
        return len(self._cache)

    def __len__(self) -> int:
        return len(self._cache)

    def rollback(self, size: int) -> None:
        """Drop the entries added since the cache held *size* entries.

        Entries are only ever appended, and a dict keeps insertion order,
        so popping the newest entries restores the earlier cache exactly.
        A served query marks ``len(cache)`` before it runs and rolls back
        to it afterwards, so the tag paths it brought leave no entries.
        """
        while len(self._cache) > size:
            self._cache.popitem()

    def clear(self) -> None:
        self._cache.clear()
        self.hits = 0
        self.misses = 0
        self.precomputed = 0

    def stats(self) -> Dict[str, int]:
        """Return cache statistics (useful in efficiency experiments).

        ``entries`` is the current cache size, ``hits``/``misses`` count
        lookups served from / computed into the cache, and ``precomputed``
        counts the entries inserted eagerly by :meth:`precompute` (they
        are neither hits nor misses; see :meth:`precompute`).
        """
        return {
            "entries": len(self._cache),
            "hits": self.hits,
            "misses": self.misses,
            "precomputed": self.precomputed,
        }
