"""Per-process similarity engines and per-cluster representative refinement.

Similarity engines (tag-path cache plus a possibly compiled backend
corpus) are expensive to rebuild and impossible to pickle cheaply, so
every process that evaluates peer work materialises one engine per
(similarity configuration, backend) pair and keeps it alive across rounds
(:func:`process_engine`).  The real transport's peer workers build their
engines here and compile their own share on them; on the simulated
transport the algorithms pass their own shared engine instead, so every
simulated node works against one compiled corpus.

:class:`RefinementShard` carries one cluster's representative refinement
(``ComputeLocalRepresentative`` or its global-phase equivalent);
:func:`refine_clusters` refines a list of them on the caller's engine and
returns the representatives keyed by cluster index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction

#: Per-process engines keyed by (similarity config, backend name).  Worker
#: processes populate this lazily on their first local phase or shard and
#: then reuse the engine -- including its tag-path cache and compiled
#: corpus blocks -- for every subsequent round.
_PROCESS_ENGINES: Dict[Tuple[SimilarityConfig, str], SimilarityEngine] = {}


def process_engine(similarity: SimilarityConfig, backend: str = "python") -> SimilarityEngine:
    """Return this process' shared engine for the given configuration."""
    key = (similarity, backend)
    engine = _PROCESS_ENGINES.get(key)
    if engine is None:
        engine = SimilarityEngine(
            similarity, cache=TagPathSimilarityCache(), backend=backend
        )
        _PROCESS_ENGINES[key] = engine
    return engine


def clear_process_engines() -> None:
    """Drop every cached per-process engine (used by tests)."""
    _PROCESS_ENGINES.clear()


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
    similarity:
        The :class:`~repro.similarity.item.SimilarityConfig` of the run.
    backend:
        Name of the backend of the engine the shard is refined on.
    representative_id:
        Identifier given to the refined representative transaction.
    max_items:
        Optional cap on the representative size
        (:attr:`~repro.core.config.ClusteringConfig.max_representative_items`).
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
    similarity: SimilarityConfig
    backend: str
    representative_id: str
    max_items: Optional[int] = None
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


def refine_clusters(
    shards: Sequence[RefinementShard], engine: SimilarityEngine
) -> Dict[int, Transaction]:
    """Refine every shard on *engine*; returns ``{cluster_index: representative}``.

    Local shards run ``compute_local_representative`` and global shards
    (weights set) ``compute_global_representative``, in shard order, on the
    caller's engine -- so refinement reuses the compiled corpus and the
    tag-path cache the assignment step already built.  An empty shard
    yields an empty representative.
    """
    # Imported lazily: repro.core.representatives sits above this module in
    # the layer graph (repro.core.__init__ imports cxkmeans, which imports
    # this module), so a top-level import would be circular.
    from repro.core.representatives import (
        compute_global_representative,
        compute_local_representative,
    )

    refined: Dict[int, Transaction] = {}
    for shard in shards:
        members = shard.resolve_members()
        if shard.weights is None:
            representative = compute_local_representative(
                members,
                engine,
                representative_id=shard.representative_id,
                max_items=shard.max_items,
            )
        else:
            representative = compute_global_representative(
                list(zip(members, shard.weights)),
                engine,
                representative_id=shard.representative_id,
                max_items=shard.max_items,
            )
        refined[shard.cluster_index] = representative
    return refined
