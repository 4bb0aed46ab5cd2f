"""Streaming out-of-core ingestion: incremental XK-means over chunked corpora.

The batch algorithms are one-shot: the whole corpus is parsed, compiled and
fitted in a single pass, so a new document means recompiling from scratch
and corpora must fit in memory.  :class:`StreamingClusterer` is the
incremental fit mode built on the block-structured corpus store
(:class:`~repro.similarity.corpus_store.BlockCorpusStore`) and delta
compilation (:meth:`~repro.similarity.backend.NumpyBackend.extend_corpus`):

* **Bootstrap.**  Incoming transactions buffer until at least ``k`` have
  arrived, then one ordinary :class:`~repro.core.xkmeans.XKMeans` fit over
  the buffered prefix seeds the representatives.  A stream ingested as a
  single chunk (``chunk_size=None``) never leaves this stage, so its
  result is *bit-exact* with the batch fit of the same corpus.
* **Assign-or-retain.**  Every later chunk is delta-compiled and assigned
  against the current representatives on the warm engine (BFR-style:
  commit points that match well, park the rest).  Transactions whose best
  similarity is positive but below ``retain_threshold`` -- and
  zero-similarity trash candidates -- land in a bounded *retained set*
  instead of being committed; when the set overflows, the oldest entry is
  flushed to its best cluster (or trash).
* **Drift-triggered re-refinement.**  Drift is the retained-set fill
  fraction; when it reaches ``drift_threshold`` the clusterer re-refines
  the representatives from a bounded per-cluster member sample (through
  :func:`~repro.network.mpengine.refine_clusters`, exactly like a batch
  iteration), re-assigns the retained set against the new
  representatives and records the assignment-churn rate.  Between drift
  events a chunk costs one delta compile plus one bulk assignment --
  never a full re-fit.
* **Out of core.**  With a backing block store, each chunk is appended as
  an immutable block, and member transactions are not kept: process
  memory holds the representatives, the member ids and each cluster's
  newest ``max(64, 4 x retain capacity)`` members -- the tail a
  re-refinement reads.  Nothing reads the chain back.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.core.config import ClusteringConfig
from repro.core.results import ClusteringResult, build_result
from repro.core.xkmeans import XKMeans
from repro.network.mpengine import RefinementShard, refine_clusters
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.corpus_store import BlockCorpusStore
from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction


@dataclass
class StreamingStats:
    """Counters a streaming ingestion accumulates (reported per run).

    ``chunks_ingested`` counts post-bootstrap ingest calls (the bootstrap
    fit is an ordinary batch fit, not a streamed chunk), ``retained`` is
    the *current* retained-set size, ``re_refinements`` counts
    drift-triggered refinement rounds, and ``churn`` is the fraction of
    retained transactions whose cluster changed across the most recent
    re-refinement (the assignment-churn rate of the drift policy).
    """

    transactions_ingested: int = 0
    chunks_ingested: int = 0
    retained: int = 0
    retained_peak: int = 0
    re_refinements: int = 0
    churn: float = 0.0
    flushed_to_trash: int = 0
    blocks_appended: int = 0

    def as_dict(self) -> Dict[str, object]:
        """The counters as a plain dict (run records, checkpoint banners)."""
        return {
            "transactions_ingested": self.transactions_ingested,
            "chunks_ingested": self.chunks_ingested,
            "retained": self.retained,
            "retained_peak": self.retained_peak,
            "re_refinements": self.re_refinements,
            "churn": self.churn,
            "flushed_to_trash": self.flushed_to_trash,
            "blocks_appended": self.blocks_appended,
        }


@dataclass
class _Retained:
    """One parked transaction and its best match so far."""

    transaction: Transaction
    best_index: int
    best_similarity: float


@dataclass
class _ClusterState:
    """Bookkeeping for one cluster: member ids and its newest members."""

    tail: Deque[Transaction]
    ids: List[str] = field(default_factory=list)
    members: List[Transaction] = field(default_factory=list)

    def add(self, transaction: Transaction, keep_member: bool) -> None:
        """Record *transaction* as this cluster's newest member."""
        self.ids.append(transaction.transaction_id)
        self.tail.append(transaction)
        if keep_member:
            self.members.append(transaction)


class StreamingClusterer:
    """Incremental XK-means over a chunked stream of XML transactions.

    Parameters
    ----------
    config:
        The clustering configuration; ``k``, similarity, backend and the
        streaming knobs (``chunk_size``, ``retain_threshold``,
        ``drift_threshold``) all apply.  The engine is built from it,
        exactly like :class:`XKMeans`'s.
    store:
        Optional :class:`BlockCorpusStore` chain.  When given, every
        ingested chunk (bootstrap included) is appended as an immutable
        block after the blocks the chain already holds -- the out-of-core
        mode.  Either way a re-refinement reads only each cluster's
        newest members, which the clusterer holds in memory.
    keep_members:
        Whether :meth:`finalize` materialises member transactions in the
        result.  Defaults to the in-memory behaviour (True without a
        store); pass False to get light results (representatives +
        counts) whose memory does not grow with the stream.
    """

    def __init__(
        self,
        config: ClusteringConfig,
        store: Optional[BlockCorpusStore] = None,
        keep_members: Optional[bool] = None,
    ) -> None:
        self.config = config
        self.engine = SimilarityEngine(
            config.similarity,
            cache=TagPathSimilarityCache(),
            backend=config.backend,
        )
        self.store = store
        self.keep_members = keep_members if keep_members is not None else store is None
        self.stats = StreamingStats()
        self._started = time.perf_counter()
        self._pending: List[Transaction] = []
        self._bootstrap_result: Optional[ClusteringResult] = None
        self._post_bootstrap_activity = False
        self._representatives: List[Transaction] = []
        # each cluster's tail bound: a re-refinement costs in proportion to
        # the retain capacity, never the corpus
        self._tail_size = max(64, 4 * self.retain_capacity)
        self._clusters: List[_ClusterState] = []
        self._trash = _ClusterState(deque(maxlen=0))  # never re-refined
        self._retained: "OrderedDict[str, _Retained]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def bootstrapped(self) -> bool:
        """Whether the bootstrap fit has run (representatives exist)."""
        return self._bootstrap_result is not None

    @property
    def representatives(self) -> List[Transaction]:
        """The current cluster representatives (empty before bootstrap)."""
        return list(self._representatives)

    @property
    def retain_capacity(self) -> int:
        """The retained-set bound (see ``effective_retain_capacity``)."""
        return self.config.effective_retain_capacity

    @property
    def drift(self) -> float:
        """Current drift: retained-set size as a fraction of its capacity."""
        return len(self._retained) / self.retain_capacity

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, transactions: Sequence[Transaction]) -> int:
        """Ingest one chunk of transactions; returns the count ingested.

        Before bootstrap, chunks accumulate until at least ``k``
        transactions are buffered, then the buffered prefix is fitted with
        the ordinary batch :class:`XKMeans` (on this clusterer's warm
        engine).  After bootstrap, the chunk is delta-compiled
        (``extend_corpus``; appended as a store block first in out-of-core
        mode), bulk-assigned against the current representatives, and each
        transaction is committed or retained per the retain policy; a
        drift crossing triggers one bounded re-refinement.
        """
        chunk = list(transactions)
        if not chunk:
            return 0
        if self._bootstrap_result is None:
            self._pending.extend(chunk)
            if len(self._pending) >= self.config.k:
                self._bootstrap()
            return len(chunk)

        self._post_bootstrap_activity = True
        self.stats.chunks_ingested += 1
        self.stats.transactions_ingested += len(chunk)
        self._register_chunk(chunk)
        self.engine.backend.extend_corpus(chunk)
        assignments = self.engine.assign_all(chunk, self._representatives)
        for transaction, (best_index, best_similarity) in zip(chunk, assignments):
            if best_similarity > 0.0 and best_similarity >= self.config.retain_threshold:
                self._commit(transaction, best_index)
            else:
                self._retain(transaction, best_index, best_similarity)
        self.stats.retained = len(self._retained)
        self.stats.retained_peak = max(self.stats.retained_peak, self.stats.retained)
        if self.drift >= self.config.drift_threshold:
            self._re_refine()
        return len(chunk)

    def _bootstrap(self) -> None:
        """Fit the buffered prefix with batch XK-means and adopt its state."""
        pending, self._pending = self._pending, []
        self._register_chunk(pending)
        result = XKMeans(self.config, engine=self.engine).fit(pending)
        self._bootstrap_result = result
        self.stats.transactions_ingested += len(pending)
        self._representatives = [cluster.representative for cluster in result.clusters]
        self._clusters = [
            _ClusterState(deque(maxlen=self._tail_size)) for _ in result.clusters
        ]
        for state, cluster in zip(self._clusters, result.clusters):
            for member in cluster.members:
                state.add(member, self.keep_members)
        for member in result.trash.members:
            self._trash.add(member, self.keep_members)

    def _register_chunk(self, chunk: List[Transaction]) -> None:
        """Append *chunk* to the block chain, if the stream has one."""
        if self.store is not None:
            self.store.append_block(chunk)
            self.stats.blocks_appended += 1

    def _commit(self, transaction: Transaction, index: int) -> None:
        state = self._clusters[index] if index >= 0 else self._trash
        state.add(transaction, self.keep_members)
        if index < 0:
            self.stats.flushed_to_trash += 1

    def _retain(
        self, transaction: Transaction, best_index: int, best_similarity: float
    ) -> None:
        """Park a poorly-matched transaction, evicting the oldest on overflow."""
        self._retained[transaction.transaction_id] = _Retained(
            transaction, best_index, best_similarity
        )
        while len(self._retained) > self.retain_capacity:
            _, oldest = self._retained.popitem(last=False)
            self._commit(
                oldest.transaction,
                oldest.best_index if oldest.best_similarity > 0.0 else -1,
            )

    # ------------------------------------------------------------------ #
    # Drift-triggered re-refinement
    # ------------------------------------------------------------------ #
    def _re_refine(self) -> None:
        """Re-refine representatives from each cluster's tail, flush retained."""
        # the newest members are the stream's active tail, whose drift
        # triggered the round
        shards = [
            RefinementShard(
                cluster_index=index,
                members=list(state.tail),
                representative_id=f"rep:{index}",
            )
            for index, state in enumerate(self._clusters)
            if state.tail
        ]
        refined = refine_clusters(shards, self.engine)
        self._representatives = [
            refined.get(index, representative)
            for index, representative in enumerate(self._representatives)
        ]
        self.stats.re_refinements += 1
        self._flush_retained(measure_churn=True)

    def _flush_retained(self, measure_churn: bool = False) -> None:
        """Assign every retained transaction against the current reps."""
        if not self._retained:
            if measure_churn:
                self.stats.churn = 0.0
            return
        parked = list(self._retained.values())
        self._retained.clear()
        assignments = self.engine.assign_all(
            [entry.transaction for entry in parked], self._representatives
        )
        moved = 0
        for entry, (best_index, best_similarity) in zip(parked, assignments):
            index = best_index if best_similarity > 0.0 else -1
            if index != (entry.best_index if entry.best_similarity > 0.0 else -1):
                moved += 1
            self._commit(entry.transaction, index)
        if measure_churn:
            self.stats.churn = moved / len(parked)
        self.stats.retained = 0

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #
    def partition(self, include_trash: bool = True) -> List[List[str]]:
        """Cluster membership as transaction-id lists (bounded accessor).

        Ids are tracked incrementally, so this never touches the store --
        the out-of-core mode's way of inspecting membership without
        materialising transactions.
        """
        parts = [list(state.ids) for state in self._clusters]
        if include_trash:
            parts.append(list(self._trash.ids))
        return parts

    def checkpoint_result(self) -> ClusteringResult:
        """A light snapshot of the current state for periodic persistence.

        Carries the current representatives and the streaming counters but
        no member transactions, and -- unlike :meth:`finalize` -- does NOT
        flush the retained set, so checkpointing mid-stream never perturbs
        the eventual clustering.  Suitable for
        :func:`repro.core.model_store.save_model` (which persists
        representatives, never members).
        """
        if self._bootstrap_result is None:
            raise RuntimeError(
                f"cannot checkpoint before bootstrap: streamed "
                f"{len(self._pending)} transactions, need at least "
                f"{self.config.k}"
            )
        return build_result(
            representatives=self._representatives,
            members=[[] for _ in self._clusters],
            trash_members=[],
            iterations=self._bootstrap_result.iterations,
            converged=False,
            elapsed_seconds=time.perf_counter() - self._started,
            metadata={
                "algorithm": "Streaming-XK-means",
                "k": self.config.k,
                "checkpoint": True,
                "transactions": self.stats.transactions_ingested,
                "cluster_sizes": [len(state.ids) for state in self._clusters],
                "trash_size": len(self._trash.ids),
                "streaming": self.stats.as_dict(),
            },
        )

    def finalize(self) -> ClusteringResult:
        """Flush the retained set and build the final clustering result.

        A stream with no post-bootstrap activity returns the bootstrap
        fit's result object *unchanged* -- the bit-exactness anchor: with
        ``chunk_size=None`` (or one big chunk) streaming **is** the batch
        fit.  Otherwise retained transactions are flushed against the
        current representatives and a fresh result is assembled; in
        out-of-core mode (``keep_members=False``) the member lists stay
        empty and the metadata carries the per-cluster counts instead.
        """
        if self._bootstrap_result is None:
            raise RuntimeError(
                f"cannot finalize before bootstrap: streamed "
                f"{len(self._pending)} transactions, need at least "
                f"{self.config.k}"
            )
        if not self._post_bootstrap_activity and not self._retained:
            return self._bootstrap_result
        self._flush_retained()
        members: List[List[Transaction]]
        trash_members: List[Transaction]
        if self.keep_members:
            members = [state.members for state in self._clusters]
            trash_members = self._trash.members
        else:
            members = [[] for _ in self._clusters]
            trash_members = []
        metadata: Dict[str, object] = {
            "algorithm": "Streaming-XK-means",
            "k": self.config.k,
            "f": self.config.f,
            "gamma": self.config.gamma,
            "transactions": self.stats.transactions_ingested,
            "cluster_sizes": [len(state.ids) for state in self._clusters],
            "trash_size": len(self._trash.ids),
            "streaming": self.stats.as_dict(),
        }
        return build_result(
            representatives=self._representatives,
            members=members,
            trash_members=trash_members,
            iterations=self._bootstrap_result.iterations,
            converged=self._bootstrap_result.converged,
            elapsed_seconds=time.perf_counter() - self._started,
            metadata=metadata,
        )


def stream_chunks(
    transactions: Sequence[Transaction], chunk_size: Optional[int]
) -> List[List[Transaction]]:
    """Split *transactions* into ingestion chunks (``None`` = one chunk)."""
    transactions = list(transactions)
    if chunk_size is None or chunk_size >= len(transactions):
        return [transactions] if transactions else []
    return [
        transactions[start : start + chunk_size]
        for start in range(0, len(transactions), chunk_size)
    ]
