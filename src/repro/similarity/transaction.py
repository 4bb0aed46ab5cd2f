"""Transaction-level similarity: gamma-shared items and sim^gamma_J (Eq. 4).

Computing exact intersections between XML transactions is not effective
because items may share structure/content information without being
identical.  The paper therefore replaces set intersection with the set of
*gamma-shared items*::

    match_gamma(tr1, tr2) = match_gamma(tr1 -> tr2) ∪ match_gamma(tr2 -> tr1)

where ``match_gamma(tri -> trj)`` contains the items ``e`` of ``tri`` for
which there exists an item ``e_h`` of ``trj`` with ``sim(e, e_h) >= gamma``
and no other item of ``tri`` is more similar to that ``e_h``.  The XML
transaction similarity is then the Jaccard-style ratio::

    sim^gamma_J(tr1, tr2) = |match_gamma(tr1, tr2)| / |tr1 ∪ tr2|

The :class:`SimilarityEngine` bundles the configuration, the tag-path cache
and the item/transaction similarity functions; it is the single entry point
used by clustering and representative computation.  The scalar methods on
the engine *are* the reference ("python") implementation; batch entry
points (:meth:`SimilarityEngine.assign_all`,
:meth:`SimilarityEngine.pairwise_transaction_similarity`) are served by a
pluggable :class:`~repro.similarity.backend.SimilarityBackend`, selected by
name, so the clustering hot path can run on the vectorized numpy engine
while keeping this module as the executable specification.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.content import content_similarity
from repro.similarity.item import SimilarityConfig, item_similarity
from repro.transactions.items import TreeTupleItem
from repro.transactions.transaction import Transaction, same_items, union_size


class _FixedRows:
    """One fixed row set's similarity matrix, column by representative.

    Holds the row set itself (so no other sequence can take its ``id``),
    the representatives its columns were scored against and one
    ``array("d")`` column of ``sim^gamma_J`` values per representative.
    """

    __slots__ = ("rows", "representatives", "columns")

    def __init__(self, rows: Sequence[Transaction]) -> None:
        self.rows = rows
        self.representatives: List[Transaction] = []
        self.columns: List[array] = []

    def assign(
        self, representatives: Sequence[Transaction], backend
    ) -> List[Tuple[int, float]]:
        """Re-score the columns whose representative changed, then assign."""
        previous = self.representatives
        if len(previous) != len(representatives):
            previous = []
            self.columns = [array("d")] * len(representatives)
        changed = [
            index
            for index, representative in enumerate(representatives)
            if not previous or not same_items(previous[index], representative)
        ]
        if changed:
            block = backend.pairwise_transaction_similarity(
                self.rows, [representatives[index] for index in changed]
            )
            for position, index in enumerate(changed):
                self.columns[index] = array("d", [row[position] for row in block])
        self.representatives = list(representatives)
        # the reference loop's argmax: the first column wins ties
        best_values = list(self.columns[0])
        best_indices = [0] * len(best_values)
        for index in range(1, len(self.columns)):
            for row, value in enumerate(self.columns[index]):
                if value > best_values[row]:
                    best_values[row] = value
                    best_indices[row] = index
        return list(zip(best_indices, best_values))


class SimilarityEngine:
    """Computes item and transaction similarities for a given configuration.

    Parameters
    ----------
    config:
        The :class:`SimilarityConfig` (blend factor ``f`` and threshold
        ``gamma``).
    cache:
        Optional shared :class:`TagPathSimilarityCache`; a private cache is
        created when omitted.
    backend:
        Name of the :class:`~repro.similarity.backend.SimilarityBackend`
        serving the batch entry points (``"python"`` by default;
        ``"numpy"`` selects the vectorized batch engine).  The backend is
        created lazily on first use.
    """

    def __init__(
        self,
        config: SimilarityConfig,
        cache: Optional[TagPathSimilarityCache] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.config = config
        self.cache = cache if cache is not None else TagPathSimilarityCache()
        self.backend_name = backend or "python"
        self._backend = None
        #: The last refinement per representative id, as ``(members,
        #: weights, representative)``: kept and read by
        #: :func:`repro.network.mpengine.refine_clusters`.
        self.refinements: Dict[str, Tuple[list, Optional[list], Transaction]] = {}
        self._fixed: Dict[int, _FixedRows] = {}

    @property
    def backend(self):
        """The lazily created similarity backend serving the batch API."""
        if self._backend is None:
            from repro.similarity.backend import create_backend

            self._backend = create_backend(self.backend_name, self)
        return self._backend

    # ------------------------------------------------------------------ #
    # Item level
    # ------------------------------------------------------------------ #
    def item_similarity(self, item_a: TreeTupleItem, item_b: TreeTupleItem) -> float:
        """Combined item similarity (Eq. 1) using the cached structural part."""
        structural = self.cache.item_similarity(item_a, item_b)
        return item_similarity(item_a, item_b, self.config, structural=structural)

    # ------------------------------------------------------------------ #
    # Transaction level
    # ------------------------------------------------------------------ #
    def gamma_shared_items(
        self, tr1: Transaction, tr2: Transaction
    ) -> Set[TreeTupleItem]:
        """Return the set of gamma-shared items ``match_gamma(tr1, tr2)``.

        Equivalent to the union of the two directed matches, but the pairwise
        item similarities are computed only once and reused for both
        directions (they are symmetric), which halves the dominant cost of
        the transaction similarity.
        """
        if tr1.is_empty() or tr2.is_empty():
            return set()
        items1 = tr1.items
        items2 = tr2.items
        gamma = self.config.gamma
        # similarity matrix computed once
        matrix = [
            [self.item_similarity(item_a, item_b) for item_b in items2]
            for item_a in items1
        ]
        matched: Set[TreeTupleItem] = set()
        # direction tr1 -> tr2: for each item of tr2, the best item(s) of tr1
        for column, _ in enumerate(items2):
            best = -1.0
            best_items: List[TreeTupleItem] = []
            for row, item_a in enumerate(items1):
                similarity = matrix[row][column]
                if similarity > best:
                    best = similarity
                    best_items = [item_a]
                elif similarity == best:
                    best_items.append(item_a)
            if best >= gamma:
                matched.update(best_items)
        # direction tr2 -> tr1: for each item of tr1, the best item(s) of tr2
        for row, _ in enumerate(items1):
            best = -1.0
            best_items = []
            for column, item_b in enumerate(items2):
                similarity = matrix[row][column]
                if similarity > best:
                    best = similarity
                    best_items = [item_b]
                elif similarity == best:
                    best_items.append(item_b)
            if best >= gamma:
                matched.update(best_items)
        return matched

    def _similarity_given_union(
        self, tr1: Transaction, tr2: Transaction, denominator: int
    ) -> float:
        """Eq. 4 with a precomputed ``|tr1 ∪ tr2|`` denominator.

        The single implementation of the similarity ratio, shared by
        :meth:`transaction_similarity` and :meth:`nearest_representative`
        so the two cannot drift apart.
        """
        if denominator == 0:
            return 0.0
        return len(self.gamma_shared_items(tr1, tr2)) / denominator

    def transaction_similarity(self, tr1: Transaction, tr2: Transaction) -> float:
        """XML transaction similarity ``sim^gamma_J`` (Eq. 4)."""
        return self._similarity_given_union(tr1, tr2, union_size(tr1, tr2))

    # ------------------------------------------------------------------ #
    # Bulk helpers used by clustering
    # ------------------------------------------------------------------ #
    def nearest_representative(
        self,
        transaction: Transaction,
        representatives: Sequence[Transaction],
        representative_item_sets: Optional[Sequence[Set[TreeTupleItem]]] = None,
    ) -> Tuple[int, float]:
        """Return (index, similarity) of the most similar representative.

        Ties are broken in favour of the **lowest index** (the loop only
        updates on strictly greater similarity), matching the deterministic
        relocation rule used in the reference algorithm; the rule is pinned
        by a dedicated unit test.  An empty representative list returns
        ``(-1, 0.0)``.

        The transaction-side set of the ``|tr1 ∪ tr2|`` denominator is
        built once and reused for every representative instead of being
        recomputed inside :func:`~repro.transactions.transaction.union_size`
        per pair; bulk callers looping over many transactions can hand in
        *representative_item_sets* (one ``item_set()`` per representative)
        to hoist the representative side out of their loop as well.
        """
        best_index = -1
        best_similarity = -1.0
        transaction_items = transaction.item_set()
        if representative_item_sets is None:
            representative_item_sets = [
                representative.item_set() for representative in representatives
            ]
        for index, (representative, representative_items) in enumerate(
            zip(representatives, representative_item_sets)
        ):
            similarity = self._similarity_given_union(
                transaction,
                representative,
                len(transaction_items | representative_items),
            )
            if similarity > best_similarity:
                best_similarity = similarity
                best_index = index
        if best_index < 0:
            return -1, 0.0
        return best_index, best_similarity

    def fix_row_sets(self, row_sets: Sequence[Sequence[Transaction]]) -> None:
        """Keep the similarity matrix of each of *row_sets* between calls.

        From now on :meth:`assign_all` on one of these very sequence
        objects re-scores only the columns whose representative changed
        since its last call there (compared by :func:`same_items`).  The
        row sets must not change.  Replaces the row sets fixed before, so
        an engine holds one ``n x k`` matrix per row set of its latest
        run.
        """
        self._fixed = {id(rows): _FixedRows(rows) for rows in row_sets}

    def assign_all(
        self,
        transactions: Sequence[Transaction],
        representatives: Sequence[Transaction],
    ) -> List[Tuple[int, float]]:
        """Bulk assignment step: nearest representative for every transaction.

        Delegates to the configured backend, which may amortise compilation
        and vectorise the whole block of similarity evaluations; the result
        is one ``(index, similarity)`` pair per transaction with the same
        lowest-index tie-break as :meth:`nearest_representative`.  On a
        row set fixed by :meth:`fix_row_sets` only the changed columns are
        scored: a column scored alone equals the full block's column bit
        for bit, so the result is the same.
        """
        fixed = self._fixed.get(id(transactions))
        if fixed is None or not representatives:
            return self.backend.assign_all(transactions, representatives)
        return fixed.assign(representatives, self.backend)

    def pairwise_transaction_similarity(
        self, rows: Sequence[Transaction], columns: Sequence[Transaction]
    ) -> List[List[float]]:
        """Batched ``sim^gamma_J`` block ``[rows x columns]`` via the backend."""
        return self.backend.pairwise_transaction_similarity(rows, columns)

    def score_candidates(
        self, cluster: Sequence[Transaction], candidates: Sequence[Transaction]
    ) -> List[float]:
        """Cohesion score (sum of member similarities) per candidate
        representative, evaluated as one batched block by the backend; the
        objective maximised by the GenerateTreeTuple refinement."""
        return self.backend.score_candidates(cluster, candidates)

    def rank_items_batch(self, items: Sequence["TreeTupleItem"]) -> List[float]:
        """Blended (pre-weight) structural/content ranks of an item pool
        (Fig. 6), one batched backend call instead of per-item loops."""
        return self.backend.rank_items_batch(items)


def transaction_similarity(
    tr1: Transaction, tr2: Transaction, config: SimilarityConfig
) -> float:
    """Stateless convenience wrapper around :class:`SimilarityEngine`."""
    return SimilarityEngine(config).transaction_similarity(tr1, tr2)


def gamma_shared_items(
    tr1: Transaction, tr2: Transaction, config: SimilarityConfig
) -> Set[TreeTupleItem]:
    """Stateless convenience wrapper returning the gamma-shared item set."""
    return SimilarityEngine(config).gamma_shared_items(tr1, tr2)
