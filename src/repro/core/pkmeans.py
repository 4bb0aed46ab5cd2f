"""PK-means: the non-collaborative distributed baseline (paper Sec. 5.5.3).

PK-means adapts the parallel K-means of Dhillon & Modha (message-passing,
distributed memory) to the XML transactional domain and to a P2P network, as
done by the paper for its comparative evaluation:

* the Euclidean distance is replaced by the XML transaction similarity
  ``sim^gamma_J`` and the vector mean by the XML cluster representative
  computation of Fig. 6;
* the multi-process architecture is mapped onto network peers, and the MPI
  style message passing onto peer-to-peer messages.

The crucial difference from CXK-means is the absence of collaboration in the
summarisation step: every peer broadcasts its local representatives for **all
k clusters to every other peer** (an all-to-all exchange analogous to the
``MPI_Allreduce`` of local sufficient statistics in the original algorithm),
and every peer then recomputes **all k global representatives by itself**.
The per-iteration traffic is therefore ``O(m * k)`` representatives per peer
instead of CXK-means' ``O(k)``, which is what makes PK-means degrade on large
networks (Fig. 8) while producing essentially the same clusterings.

Convergence follows the original algorithm's global-SSE criterion: peers
exchange their local objective (sum of member-to-representative
similarities), and the algorithm stops when the global objective no longer
improves.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import LocalPhaseInput, LocalPhaseOutput, run_local_phase
from repro.core.results import ClusteringResult, build_result
from repro.core.seeding import partition_cluster_ids, select_seed_transactions
from repro.network.costmodel import CostModel
from repro.network.message import Message, MessageKind, representative_payload
from repro.network.mpengine import RefinementShard, refine_clusters
from repro.network.peer import make_peers
from repro.network.simnet import SimulatedNetwork
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction


class PKMeans:
    """Parallel (non-collaborative) K-means over XML transactions."""

    def __init__(
        self,
        config: ClusteringConfig,
        cost_model: Optional[CostModel] = None,
        objective_tolerance: float = 1.0e-9,
    ) -> None:
        if config.network == "real":
            raise ValueError(
                "the real transport (ClusteringConfig.network='real') is "
                "implemented for CXK-means only; run PK-means on the "
                "simulated network or switch to algorithm 'cxk'"
            )
        self.config = config
        self.cost_model = cost_model or CostModel()
        self.objective_tolerance = objective_tolerance
        self._shared_cache = TagPathSimilarityCache()
        self._engine = SimilarityEngine(
            config.similarity,
            cache=self._shared_cache,
            backend=config.effective_backend,
        )

    @property
    def engine(self) -> SimilarityEngine:
        """The engine shared by every simulated node."""
        return self._engine

    # ------------------------------------------------------------------ #
    def _objective(
        self,
        outputs: Sequence[LocalPhaseOutput],
        partitions: Sequence[Sequence[Transaction]],
        representatives: Sequence[Transaction],
    ) -> float:
        """Global objective: sum of similarities to the assigned representative."""
        total = 0.0
        for output, partition in zip(outputs, partitions):
            by_id = {t.transaction_id: t for t in partition}
            for transaction_id, cluster_index in output.assignment.items():
                if cluster_index < 0:
                    continue
                transaction = by_id[transaction_id]
                total += self._engine.transaction_similarity(
                    transaction, representatives[cluster_index]
                )
        return total

    # ------------------------------------------------------------------ #
    def fit(self, partitions: Sequence[Sequence[Transaction]]) -> ClusteringResult:
        """Run PK-means over the given per-peer data partitions."""
        partitions = [list(partition) for partition in partitions]
        if not partitions:
            raise ValueError("at least one peer partition is required")
        total_transactions = sum(len(partition) for partition in partitions)
        if total_transactions < self.config.k:
            raise ValueError(
                f"cannot form {self.config.k} clusters from "
                f"{total_transactions} transactions"
            )

        start = time.perf_counter()
        rng = random.Random(self.config.seed)
        k = self.config.k
        m = len(partitions)

        # PK-means has no notion of per-cluster responsibility; peers are
        # created with empty responsibility lists.
        peers = make_peers(partitions, [[] for _ in range(m)], engine=self._engine)
        network = SimulatedNetwork(peers, cost_model=self.cost_model)

        # Initial representatives: the same fair protocol as the paper's
        # comparison -- seeds are chosen among local transactions, one block of
        # clusters per peer (round-robin), then broadcast to everyone.
        seed_responsibilities = partition_cluster_ids(k, m)
        global_representatives: Dict[int, Transaction] = {}
        used = set()
        for peer_index, cluster_ids in enumerate(seed_responsibilities):
            local = partitions[peer_index]
            count = min(len(cluster_ids), len(local))
            chosen = select_seed_transactions(local, count, rng) if count else []
            for cluster_id, seed in zip(cluster_ids, chosen):
                global_representatives[cluster_id] = seed
                used.add(seed.transaction_id)
        missing = [j for j in range(k) if j not in global_representatives]
        if missing:
            pool = [
                t
                for partition in partitions
                for t in partition
                if t.transaction_id not in used
            ]
            extra = select_seed_transactions(pool, len(missing), rng)
            for cluster_id, seed in zip(missing, extra):
                global_representatives[cluster_id] = seed

        with network.round():
            for peer in peers:
                payload = representative_payload(
                    [(j, global_representatives[j], 0) for j in range(k)]
                )
                network.send(
                    Message(
                        sender=-1,
                        recipient=peer.peer_id,
                        kind=MessageKind.GLOBAL_REPRESENTATIVES,
                        payload=payload,
                    )
                )

        iterations = 0
        converged = False
        previous_objective: Optional[float] = None
        last_outputs: List[Optional[LocalPhaseOutput]] = [None] * m

        while iterations < self.config.max_iterations:
            iterations += 1
            network.begin_round()
            ordered_representatives = [global_representatives[j] for j in range(k)]

            inputs = [
                LocalPhaseInput(
                    peer_id=peer.peer_id,
                    transactions=peer.transactions,
                    global_representatives=ordered_representatives,
                    config=self.config,
                )
                for peer in peers
            ]
            outputs = network.run_local_phases(inputs, run_local_phase)
            for output in outputs:
                last_outputs[output.peer_id] = output

            # All-to-all exchange: every peer sends its k local representatives
            # (and local cluster sizes) to every other peer.
            for output in outputs:
                payload = representative_payload(
                    [
                        (j, output.local_representatives[j], output.cluster_sizes[j])
                        for j in range(k)
                    ]
                )
                network.broadcast(
                    output.peer_id, MessageKind.LOCAL_REPRESENTATIVES, payload
                )
                # the local objective / flag exchange of the original algorithm
                network.broadcast(output.peer_id, MessageKind.FLAG, {"objective": 0.0})

            # Every peer recomputes every global representative (duplicated
            # work; only one copy is timed per peer since they all perform the
            # same computation in parallel).
            new_representatives: Dict[int, Transaction] = {}
            for peer in peers:
                with network.measure_compute(peer.peer_id):
                    computed: Dict[int, Transaction] = {}
                    shards = []
                    for cluster_id in range(k):
                        weighted = [
                            (
                                output.local_representatives[cluster_id],
                                output.cluster_sizes[cluster_id],
                            )
                            for output in outputs
                        ]
                        if not any(weight for _, weight in weighted):
                            computed[cluster_id] = global_representatives[cluster_id]
                            continue
                        shards.append(
                            RefinementShard(
                                cluster_index=cluster_id,
                                members=[rep for rep, _ in weighted],
                                weights=[weight for _, weight in weighted],
                                similarity=self.config.similarity,
                                backend=self._engine.backend_name,
                                representative_id=f"rep:global:{cluster_id}",
                                max_items=self.config.max_representative_items,
                            )
                        )
                    # the global-phase equivalent of the cluster-sharded
                    # refinement: one cluster merge per worker
                    computed.update(
                        refine_clusters(
                            shards,
                            self._engine,
                            workers=self.config.effective_refine_workers,
                        )
                    )
                if not new_representatives:
                    new_representatives = computed
            global_representatives = new_representatives

            objective = self._objective(
                outputs, partitions, [global_representatives[j] for j in range(k)]
            )
            network.end_round()

            if (
                previous_objective is not None
                and abs(objective - previous_objective) <= self.objective_tolerance
            ):
                converged = True
                break
            previous_objective = objective

        # --- final clustering --------------------------------------------- #
        members: List[List[Transaction]] = [[] for _ in range(k)]
        trash: List[Transaction] = []
        for peer in peers:
            output = last_outputs[peer.peer_id]
            if output is None:
                trash.extend(peer.transactions)
                continue
            by_id = {t.transaction_id: t for t in peer.transactions}
            for transaction_id, cluster_index in output.assignment.items():
                transaction = by_id[transaction_id]
                if cluster_index < 0:
                    trash.append(transaction)
                else:
                    members[cluster_index].append(transaction)

        elapsed = time.perf_counter() - start
        network_summary = network.summary()
        return build_result(
            representatives=[global_representatives[j] for j in range(k)],
            members=members,
            trash_members=trash,
            iterations=iterations,
            converged=converged,
            elapsed_seconds=elapsed,
            simulated_seconds=network_summary["simulated_seconds"],
            network=network_summary,
            metadata={
                "algorithm": "PK-means",
                "k": k,
                "peers": m,
                "f": self.config.f,
                "gamma": self.config.gamma,
                "transactions": total_transactions,
                "partition_sizes": [len(partition) for partition in partitions],
            },
        )
