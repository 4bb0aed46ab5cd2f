"""Cluster representative computation (paper Fig. 6).

This module implements the three functions that make up the summarisation
machinery of CXK-means:

* ``conflateItems`` -- merges a set of items into one synthetic item per
  distinct path, unioning the textual contents;
* ``ComputeLocalRepresentative`` -- ranks the items of a cluster by a blend
  of structural and content ranking and greedily assembles a representative
  transaction (through ``GenerateTreeTuple``);
* ``ComputeGlobalRepresentative`` -- the same procedure applied to the
  *local representatives* received from all peers, each weighted by the size
  of the local cluster it summarises.

Representative transactions are "tree tuples" in the sense that they contain
at most one item per distinct path; they are synthetic objects that never
join the item domain.

Implementation note on ``GenerateTreeTuple``: the paper's pseudocode returns
the representative of the *previous* refinement step when the loop exits
because the item list is exhausted, which would discard an improving final
step.  This implementation keeps the best-scoring representative seen during
the refinement (a strictly-not-worse variant of the same greedy heuristic),
and breaks score ties in favour of the *first* (smallest) candidate that
attained the best score: a refinement step must strictly improve the
cohesion score to replace the incumbent, so equal-scoring growth steps never
bloat the representative.  Both choices are covered by unit tests
documenting them.

Since the representative-scoring backend extension, the expensive parts of
the machinery run through the pluggable similarity backend: the item ranking
is one :meth:`~repro.similarity.transaction.SimilarityEngine.rank_items_batch`
call and the greedy refinement materialises its whole candidate chain up
front (:func:`refinement_candidates`) and scores it in batched
:meth:`~repro.similarity.transaction.SimilarityEngine.score_candidates`
blocks -- the scalar loops survive only as the ``python`` reference backend.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.similarity.transaction import SimilarityEngine
from repro.text.vector import SparseVector, merge_vectors
from repro.transactions.items import TreeTupleItem, make_synthetic_item
from repro.transactions.transaction import Transaction, make_transaction
from repro.xmlmodel.paths import XMLPath


# --------------------------------------------------------------------------- #
# conflateItems
# --------------------------------------------------------------------------- #
def conflate_items(items: Iterable[TreeTupleItem]) -> List[TreeTupleItem]:
    """Merge *items* into one synthetic item per distinct complete path.

    The content associated to each path is the union of the contents of the
    merged items: answers are joined (distinct answers, first-seen order),
    term sequences are concatenated and TCU vectors are summed.  The output
    is sorted by path so representatives are deterministic.
    """
    by_path: Dict[XMLPath, List[TreeTupleItem]] = defaultdict(list)
    for item in items:
        by_path[item.path].append(item)

    conflated: List[TreeTupleItem] = []
    for path in sorted(by_path.keys()):
        group = by_path[path]
        if len(group) == 1:
            original = group[0]
            conflated.append(
                make_synthetic_item(
                    path=path,
                    answer=original.answer,
                    terms=original.terms,
                    vector=original.vector,
                )
            )
            continue
        answers: List[str] = []
        seen = set()
        terms: List[str] = []
        vectors: List[SparseVector] = []
        for item in group:
            if item.answer not in seen:
                seen.add(item.answer)
                answers.append(item.answer)
            terms.extend(item.terms)
            vectors.append(item.vector)
        conflated.append(
            make_synthetic_item(
                path=path,
                answer=" | ".join(answers),
                terms=terms,
                vector=merge_vectors(vectors),
            )
        )
    return conflated


# --------------------------------------------------------------------------- #
# Item ranking
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RankedItem:
    """An item together with its rank and an optional weight (global case)."""

    item: TreeTupleItem
    rank: float
    weight: float = 1.0


def _path_frequencies(items: Sequence[TreeTupleItem]) -> Dict[XMLPath, int]:
    """Return ``P_C``: the number of items carrying each distinct path."""
    frequencies: Dict[XMLPath, int] = defaultdict(int)
    for item in items:
        frequencies[item.path] += 1
    return dict(frequencies)


def structural_rank(
    item: TreeTupleItem,
    items: Sequence[TreeTupleItem],
    path_frequencies: Dict[XMLPath, int],
    engine: SimilarityEngine,
) -> float:
    """``rank_S(e)``: structural ranking of *item* within the item pool.

    Sums, over the distinct paths ``p'`` whose items are structurally
    gamma-similar to *item*, the number of items carrying ``p'``; the sum is
    normalised by the number of distinct paths.  Structural similarity
    between items only depends on their tag paths, so the computation is
    performed per distinct path using the shared tag-path cache (this is the
    optimisation suggested by the paper's complexity analysis).
    """
    if not path_frequencies:
        return 0.0
    gamma = engine.config.gamma
    total = 0.0
    for path, count in path_frequencies.items():
        similarity = engine.cache.similarity(item.tag_path, path.tag_path())
        if similarity >= gamma:
            total += count
    return total / len(path_frequencies)


def content_rank(item: TreeTupleItem, items: Sequence[TreeTupleItem]) -> float:
    """``rank_C(e)``: sum of cosine similarities of *item* to every item."""
    vector = item.vector
    if not vector:
        return 0.0
    return sum(vector.cosine(other.vector) for other in items)


def reference_item_ranks(
    items: Sequence[TreeTupleItem], engine: SimilarityEngine
) -> List[float]:
    """Blended (pre-weight) ranks of *items*: the reference loops.

    One ``f * rank_S + (1 - f) * rank_C`` value per item, in input order.
    This is the executable specification behind
    :meth:`~repro.similarity.backend.SimilarityBackend.rank_items_batch`;
    the ``python`` backend delegates here, and the vectorized backends are
    required to reproduce these floats bit-for-bit.
    """
    item_list = list(items)
    frequencies = _path_frequencies(item_list)
    f = engine.config.f
    return [
        f * structural_rank(item, item_list, frequencies, engine)
        + (1.0 - f) * content_rank(item, item_list)
        for item in item_list
    ]


def rank_items(
    items: Sequence[TreeTupleItem],
    engine: SimilarityEngine,
    weights: Optional[Dict[TreeTupleItem, float]] = None,
) -> List[RankedItem]:
    """Rank *items* by the blended structural/content ranking (Fig. 6).

    The blended ranks of the whole pool are computed by one batched
    :meth:`~repro.similarity.transaction.SimilarityEngine.rank_items_batch`
    call on the engine's similarity backend; weighting, sorting and
    tie-breaking stay here.

    Parameters
    ----------
    items:
        The item pool ``I_C`` (local case) or ``I_T[1]`` (global case).
    engine:
        Similarity engine providing ``f``, ``gamma``, the tag-path cache and
        the ranking backend.
    weights:
        Optional per-item weights ``w``; when provided the final rank is
        multiplied by the weight, as done by ComputeGlobalRepresentative.

    Returns
    -------
    list of :class:`RankedItem`
        Sorted by decreasing rank; ties are broken by path then answer so the
        ordering is deterministic.
    """
    item_list = list(items)
    ranks = engine.rank_items_batch(item_list)
    ranked: List[RankedItem] = []
    for item, rank in zip(item_list, ranks):
        weight = 1.0
        if weights is not None:
            weight = weights.get(item, 1.0)
            rank *= weight
        ranked.append(RankedItem(item=item, rank=rank, weight=weight))
    ranked.sort(key=lambda entry: (-entry.rank, entry.item.path, entry.item.answer))
    return ranked


# --------------------------------------------------------------------------- #
# GenerateTreeTuple
# --------------------------------------------------------------------------- #
#: Initial block size of the progressive candidate scoring; doubled after
#: every scored block, so a refinement that runs to the length bound scores
#: O(log chain) batched blocks while an early score-driven exit wastes at
#: most one block of look-ahead.
_SCORE_BLOCK = 4


def refinement_candidates(
    ranked_items: Sequence[RankedItem], max_member_length: int
) -> List[List[TreeTupleItem]]:
    """The deterministic candidate chain of one GenerateTreeTuple refinement.

    Greedy refinement consumes equal-rank batches in rank order, so the
    candidate of step ``t`` is the conflation of all batches up to ``t`` --
    independent of any similarity score.  The whole chain can therefore be
    materialised up front and scored in batched backend calls; only the
    score-driven early exit has to be replayed on the resulting score
    vector (done by :func:`generate_tree_tuple`).

    The chain ends when a step would grow the candidate beyond
    *max_member_length* (the first batch is trimmed item by item instead, as
    in the reference loop) or when the items are exhausted.
    """
    remaining: List[RankedItem] = list(ranked_items)
    chain: List[List[TreeTupleItem]] = []
    current_items: List[TreeTupleItem] = []
    while remaining:
        top_rank = remaining[0].rank
        batch = [entry.item for entry in remaining if entry.rank == top_rank]
        remaining = [entry for entry in remaining if entry.rank != top_rank]

        candidate_items = conflate_items(current_items + batch)
        if len(candidate_items) > max_member_length:
            if current_items:
                break
            # First batch already exceeds the length bound: add its items one
            # by one (in rank order) until the bound is reached, so the
            # representative never grows beyond the longest member.
            trimmed: List[TreeTupleItem] = []
            for candidate in batch:
                extended = conflate_items(trimmed + [candidate])
                if len(extended) > max_member_length:
                    break
                trimmed = extended
            candidate_items = trimmed
        chain.append(candidate_items)
        current_items = candidate_items
        if len(current_items) >= max_member_length:
            break
    return chain


def generate_tree_tuple(
    ranked_items: Sequence[RankedItem],
    cluster: Sequence[Transaction],
    engine: SimilarityEngine,
    representative_id: str = "rep",
) -> Transaction:
    """Greedy assembly of a representative transaction (Fig. 6, GenerateTreeTuple).

    Items are consumed in batches of equal (highest) rank; each refinement
    step's candidate is the conflation of everything consumed so far, scored
    by the sum of its ``sim^gamma_J`` similarities to the cluster members.
    Refinement stops when the score drops below the best seen, the
    representative grows beyond the longest member transaction, or the items
    are exhausted.

    Because the candidate chain is score-independent
    (:func:`refinement_candidates`), all candidate tree tuples of the
    refinement are scored through the batched
    :meth:`~repro.similarity.transaction.SimilarityEngine.score_candidates`
    entry point in progressively doubling blocks, and the reference loop's
    exit conditions are replayed on the precomputed scores.

    The returned representative is the *first* candidate that attained the
    best score: a step must strictly improve the score to replace the
    incumbent, so an equal-scoring growth step never enlarges the
    representative (first-best-wins; pinned by a regression test).
    """
    if not cluster:
        return make_transaction(representative_id, [], sort_items=True)

    max_member_length = max(len(transaction) for transaction in cluster)

    chain = refinement_candidates(ranked_items, max_member_length)
    candidates = [
        make_transaction(representative_id, items, sort_items=True) for items in chain
    ]

    best_items: List[TreeTupleItem] = []
    best_score = 0.0
    index = 0
    block = _SCORE_BLOCK
    while index < len(candidates):
        scores = engine.score_candidates(cluster, candidates[index : index + block])
        stopped = False
        for offset, candidate_score in enumerate(scores):
            if candidate_score < best_score:
                stopped = True
                break
            if candidate_score > best_score:
                best_score = candidate_score
                best_items = chain[index + offset]
        if stopped:
            break
        index += len(scores)
        block *= 2

    return make_transaction(representative_id, best_items, sort_items=True)


# --------------------------------------------------------------------------- #
# ComputeLocalRepresentative / ComputeGlobalRepresentative
# --------------------------------------------------------------------------- #
def compute_local_representative(
    cluster: Sequence[Transaction],
    engine: SimilarityEngine,
    representative_id: str = "rep:local",
) -> Transaction:
    """``ComputeLocalRepresentative(C)``: summarise a local cluster.

    Collects the items of every member transaction, ranks them by the blended
    structural/content ranking and assembles the representative through
    :func:`generate_tree_tuple`; both the ranking and the refinement scoring
    run through the engine's batched backend entry points.  An empty cluster
    yields an empty representative transaction.
    """
    items: List[TreeTupleItem] = []
    for transaction in cluster:
        items.extend(transaction.items)
    if not items:
        return make_transaction(representative_id, [], sort_items=True)
    ranked = rank_items(items, engine)
    return generate_tree_tuple(
        ranked, cluster, engine, representative_id=representative_id
    )


def compute_global_representative(
    weighted_locals: Sequence[Tuple[Transaction, int]],
    engine: SimilarityEngine,
    representative_id: str = "rep:global",
) -> Transaction:
    """``ComputeGlobalRepresentative(T)``: merge local representatives.

    Parameters
    ----------
    weighted_locals:
        Pairs ``(local representative, |C^i_j|)`` received from every peer;
        representatives of empty local clusters (weight 0 or no items) are
        ignored.
    engine:
        Similarity engine (provides ``f``, ``gamma`` and the tag-path cache).
    representative_id:
        Identifier given to the resulting representative transaction.

    The item pool is the union of the items of the local representatives;
    each item is weighted by the total size of the local clusters whose
    representative contains it, and the weight multiplies the blended rank --
    peers that summarise more transactions therefore contribute more to the
    global representative.
    """
    filtered = [
        (transaction, weight)
        for transaction, weight in weighted_locals
        if weight > 0 and len(transaction) > 0
    ]
    if not filtered:
        return make_transaction(representative_id, [], sort_items=True)

    item_weights: Dict[TreeTupleItem, float] = defaultdict(float)
    items: List[TreeTupleItem] = []
    for transaction, weight in filtered:
        for item in transaction.items:
            if item not in item_weights:
                items.append(item)
            item_weights[item] += float(weight)

    ranked = rank_items(items, engine, weights=dict(item_weights))
    local_transactions = [transaction for transaction, _ in filtered]
    return generate_tree_tuple(
        ranked,
        local_transactions,
        engine,
        representative_id=representative_id,
    )


def representatives_equal(first: Optional[Transaction], second: Optional[Transaction]) -> bool:
    """Return True when two representatives carry the same item content.

    Representatives are synthetic transactions, so equality is defined on the
    multiset of (path, answer) pairs rather than on object identity.
    """
    if first is None or second is None:
        return first is second
    key_first = sorted((str(item.path), item.answer) for item in first.items)
    key_second = sorted((str(item.path), item.answer) for item in second.items)
    return key_first == key_second
