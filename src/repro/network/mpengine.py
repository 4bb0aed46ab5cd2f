"""Per-cluster representative refinement.

:class:`RefinementShard` carries one cluster's representative refinement
(``ComputeLocalRepresentative`` or its global-phase equivalent);
:func:`refine_clusters` refines a list of them on the caller's engine and
returns the representatives keyed by cluster index.  The caller is an
algorithm, on its own engine, or a real-transport peer worker, on the one
engine it builds for its share (:mod:`repro.network.worker`).  A shard
whose input repeats the last refinement of its representative id on that
engine is answered from the engine's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction, same_items


def _store_transactions(store_dir: str, rows: Sequence[int]) -> List[Transaction]:
    """Resolve store row ids to transactions via the process store cache."""
    from repro.similarity.corpus_store import cached_store

    corpus = cached_store(store_dir).transactions()
    return [corpus[row] for row in rows]


# --------------------------------------------------------------------------- #
# Per-cluster representative refinement
# --------------------------------------------------------------------------- #
@dataclass
class RefinementShard:
    """One cluster's representative-refinement task.

    Attributes
    ----------
    cluster_index:
        Index of the cluster in the caller's representative list; the
        refined representative is returned under this key.
    members:
        Local shard: the cluster's member transactions.  Global shard: the
        local representatives received from the peers.
    representative_id:
        Identifier given to the refined representative transaction.
    weights:
        ``None`` for a local shard (``ComputeLocalRepresentative``); for a
        global shard the per-member weights ``|C^i_j|``, parallel to
        *members* (``ComputeGlobalRepresentative``).
    store_dir / member_rows:
        Store-backed alternative to *members* (which is then ``None``):
        the corpus-store directory plus the members' row ids, resolved
        through the process-wide store cache when the shard is refined.
    """

    cluster_index: int
    members: Optional[List[Transaction]]
    representative_id: str
    weights: Optional[List[int]] = None
    store_dir: Optional[str] = None
    member_rows: Optional[List[int]] = None

    @property
    def kind(self) -> str:
        """``"local"`` or ``"global"``, decided by the presence of weights."""
        return "local" if self.weights is None else "global"

    def resolve_members(self) -> List[Transaction]:
        """The member transactions (inline, or store rows resolved through
        the process-wide store cache for store-backed shards)."""
        if self.members is not None:
            return self.members
        return _store_transactions(self.store_dir, self.member_rows)


def _repeats(
    last: Tuple[List[Transaction], Optional[List[int]], Transaction],
    members: List[Transaction],
    weights: Optional[List[int]],
) -> bool:
    """Whether *members* and *weights* repeat the refinement input *last*."""
    last_members, last_weights, _ = last
    return (
        last_weights == weights
        and len(last_members) == len(members)
        and all(map(same_items, last_members, members))
    )


def refine_clusters(
    shards: Sequence[RefinementShard], engine: SimilarityEngine
) -> Dict[int, Transaction]:
    """Refine every shard on *engine*; returns ``{cluster_index: representative}``.

    Local shards run ``compute_local_representative`` and global shards
    (weights set) ``compute_global_representative``, in shard order, on the
    caller's engine -- so refinement reuses the compiled corpus and the
    tag-path cache the assignment step already built.  An empty shard
    yields an empty representative.

    Both functions read nothing but the members, the weights and the
    engine's fixed settings, so a shard whose members (compared by
    :func:`~repro.transactions.transaction.same_items`, in order) and
    weights repeat its representative id's last refinement on this engine
    gets that representative again.  ``engine.refinements`` keeps one
    entry per representative id, holding references, not copies.
    """
    # Imported lazily: repro.core.representatives sits above this module in
    # the layer graph (repro.core.__init__ imports cxkmeans, which imports
    # this module), so a top-level import would be circular.
    from repro.core.representatives import (
        compute_global_representative,
        compute_local_representative,
    )

    refined: Dict[int, Transaction] = {}
    memo = engine.refinements
    for shard in shards:
        members = shard.resolve_members()
        last = memo.get(shard.representative_id)
        if last is not None and _repeats(last, members, shard.weights):
            refined[shard.cluster_index] = last[2]
            continue
        if shard.weights is None:
            representative = compute_local_representative(
                members,
                engine,
                representative_id=shard.representative_id,
            )
        else:
            representative = compute_global_representative(
                list(zip(members, shard.weights)),
                engine,
                representative_id=shard.representative_id,
            )
        memo[shard.representative_id] = (members, shard.weights, representative)
        refined[shard.cluster_index] = representative
    return refined
