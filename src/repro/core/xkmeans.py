"""Centralized XK-means transactional clustering (paper Sec. 4.2, refs [33,32]).

XK-means is the centroid-based partitional algorithm CXK-means builds on: it
computes ``k + 1`` clusters over XML transactions, where the ``(k+1)``-th
*trash* cluster collects the transactions whose similarity to every cluster
representative is zero.  Its single-node execution is the ``m = 1`` baseline
of every efficiency and effectiveness experiment in the paper.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

from repro.core.config import ClusteringConfig
from repro.core.representatives import representatives_equal
from repro.core.results import ClusteringResult, build_result
from repro.core.seeding import select_seed_transactions
from repro.network.mpengine import RefinementShard, refine_clusters
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction


class XKMeans:
    """Centralized centroid-based clustering of XML transactions.

    Parameters
    ----------
    config:
        The clustering configuration (``k``, similarity parameters, bounds).
    engine:
        Optional pre-built :class:`SimilarityEngine`; constructing the engine
        externally allows the tag-path similarity cache to be shared across
        runs (e.g. across the nodes of a simulated network).
    """

    def __init__(
        self,
        config: ClusteringConfig,
        engine: Optional[SimilarityEngine] = None,
    ) -> None:
        if config.network == "real":
            raise ValueError(
                "the real transport (ClusteringConfig.network='real') is "
                "implemented for CXK-means only; the centralized XK-means "
                "has no network at all"
            )
        self.config = config
        self.engine = engine or SimilarityEngine(
            config.similarity,
            cache=TagPathSimilarityCache(),
            backend=config.backend,
        )

    # ------------------------------------------------------------------ #
    # Assignment step
    # ------------------------------------------------------------------ #
    def assign(
        self,
        transactions: Sequence[Transaction],
        representatives: Sequence[Transaction],
    ) -> Dict[str, int]:
        """Assign each transaction to its most similar representative.

        The whole step runs through the engine's bulk ``assign_all`` entry
        point (one batched call instead of a per-transaction loop), letting
        vectorized backends amortise compilation across the corpus.
        Returns a mapping transaction_id -> cluster index, with ``-1`` for
        the trash cluster (zero similarity to every representative).
        """
        assignment: Dict[str, int] = {}
        results = self.engine.assign_all(transactions, representatives)
        for transaction, (best_index, best_similarity) in zip(transactions, results):
            if best_similarity <= 0.0:
                assignment[transaction.transaction_id] = -1
            else:
                assignment[transaction.transaction_id] = best_index
        return assignment

    def _clusters_from_assignment(
        self,
        transactions: Sequence[Transaction],
        assignment: Dict[str, int],
        k: int,
    ) -> (List[List[Transaction]], List[Transaction]):
        clusters: List[List[Transaction]] = [[] for _ in range(k)]
        trash: List[Transaction] = []
        for transaction in transactions:
            index = assignment[transaction.transaction_id]
            if index < 0:
                trash.append(transaction)
            else:
                clusters[index].append(transaction)
        return clusters, trash

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def fit(self, transactions: Sequence[Transaction]) -> ClusteringResult:
        """Cluster *transactions* into ``k`` clusters plus the trash cluster."""
        transactions = list(transactions)
        if len(transactions) < self.config.k:
            raise ValueError(
                f"cannot form {self.config.k} clusters from "
                f"{len(transactions)} transactions"
            )
        start = time.perf_counter()
        rng = random.Random(self.config.seed)
        k = self.config.k
        # one-off corpus compilation (no-op for the reference backend)
        self.engine.backend.compile_corpus(transactions)
        self.engine.fix_row_sets([transactions])

        representatives: List[Transaction] = list(
            select_seed_transactions(transactions, k, rng)
        )
        assignment: Dict[str, int] = {}
        iterations = 0
        converged = False

        while iterations < self.config.max_iterations:
            iterations += 1
            new_assignment = self.assign(transactions, representatives)
            clusters, _ = self._clusters_from_assignment(
                transactions, new_assignment, k
            )
            # refinement: one shard per non-empty cluster
            shards = [
                RefinementShard(
                    cluster_index=index,
                    members=members,
                    representative_id=f"rep:{index}",
                )
                for index, members in enumerate(clusters)
                if members
            ]
            refined = refine_clusters(shards, self.engine)
            # empty clusters keep the previous representative so they may
            # re-acquire transactions in later iterations
            new_representatives = [
                refined.get(index, representatives[index]) for index in range(k)
            ]

            stable_assignment = new_assignment == assignment
            stable_representatives = all(
                representatives_equal(old, new)
                for old, new in zip(representatives, new_representatives)
            )
            assignment = new_assignment
            representatives = new_representatives
            if stable_assignment or stable_representatives:
                converged = True
                break

        clusters, trash = self._clusters_from_assignment(transactions, assignment, k)
        elapsed = time.perf_counter() - start
        return build_result(
            representatives=representatives,
            members=clusters,
            trash_members=trash,
            iterations=iterations,
            converged=converged,
            elapsed_seconds=elapsed,
            metadata={
                "algorithm": "XK-means",
                "k": k,
                "f": self.config.f,
                "gamma": self.config.gamma,
                "transactions": len(transactions),
            },
        )
