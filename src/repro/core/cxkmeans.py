"""CXK-means: collaborative distributed clustering of XML transactions.

This module implements the algorithm of the paper's Fig. 5.  The input set
``S`` of XML transactions is distributed over ``m`` peers; every peer runs a
K-means-like local clustering over its own data using the *global* cluster
representatives, summarises each local cluster with a *local* representative
(Fig. 6), and sends each local representative to the peer responsible for
that cluster.  Responsible peers merge the local representatives (weighted by
local cluster sizes) into new global representatives and broadcast them back.
The process iterates until every peer reports that its local representatives
no longer change.

The peers are executed on one of two drop-in interchangeable transports,
selected by ``ClusteringConfig(network=...)``:

* ``"sim"`` -- the :class:`~repro.network.simnet.SimulatedNetwork`, which
  runs the peers one after another in this process, accounts every
  exchanged representative and models the parallel runtime of each round
  as ``max(per-peer compute time) + communication time``.
* ``"real"`` -- the :class:`~repro.network.realnet.RealNetwork`, which runs
  every peer as a genuinely concurrent process exchanging the same message
  types over localhost TCP and records measured wire bytes and wall-clock
  alongside the cost model's predictions.  The collaborative control flow
  (rounds, flags, global merges) is identical, so both transports produce
  bit-identical clusterings for the same seed.

Startup (the role of node ``N0``) consists only of partitioning the cluster
identifiers across peers and distributing ``(Z, k, gamma)``; as in the paper
it involves no data summarisation and therefore does not make the algorithm
centralised.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import ClusteringConfig
from repro.core.representatives import representatives_equal
from repro.core.results import ClusteringResult, build_result
from repro.core.seeding import partition_cluster_ids, select_seed_transactions
from repro.network.costmodel import CostModel
from repro.network.message import (
    LocalPhaseOutput,
    Message,
    MessageKind,
    representative_payload,
)
from repro.network.mpengine import RefinementShard, refine_clusters
from repro.network.peer import make_peers
from repro.network.simnet import SimulatedNetwork
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction


# --------------------------------------------------------------------------- #
# The per-peer local phase
# --------------------------------------------------------------------------- #
@dataclass
class LocalPhaseInput:
    """Input of one peer's local phase for one collaborative round.

    The phase's settings live in the engine that runs it.
    """

    peer_id: int
    transactions: List[Transaction]
    global_representatives: List[Transaction]


def run_local_phase(
    phase_input: LocalPhaseInput, engine: SimilarityEngine
) -> LocalPhaseOutput:
    """Execute the local clustering phase of one peer (Fig. 5, inner loop).

    The peer relocates its local transactions against the current global
    representatives (transactions with zero similarity to every
    representative fall into the trash cluster) and computes a local
    representative for every non-empty local cluster.  The pseudocode's
    relocation loop repeats until the assignment is stable, but the global
    representatives stay fixed during the phase, so a second pass would
    recompute the first: the phase makes exactly one ``assign_all`` pass.

    *engine* is the caller's one engine for the whole run: the algorithm's
    on the simulated transport, the peer worker's own on the real one.  It
    compiles the share on the first round and keeps its tag-path cache and
    compiled corpus across rounds.
    """
    start = time.perf_counter()
    representatives = phase_input.global_representatives
    k = len(representatives)
    transactions = phase_input.transactions
    engine.backend.compile_corpus(transactions)

    assignment: Dict[str, int] = {}
    clusters: List[List[Transaction]] = [[] for _ in range(k)]
    results = engine.assign_all(transactions, representatives)
    for transaction, (best_index, best_similarity) in zip(transactions, results):
        if best_similarity <= 0.0:
            assignment[transaction.transaction_id] = -1
        else:
            assignment[transaction.transaction_id] = best_index
            clusters[best_index].append(transaction)

    # representative refinement: one shard per cluster, on the phase engine
    cluster_sizes = [len(members) for members in clusters]
    shards = [
        RefinementShard(
            cluster_index=cluster_index,
            members=members,
            representative_id=f"rep:local:{phase_input.peer_id}:{cluster_index}",
        )
        for cluster_index, members in enumerate(clusters)
    ]
    refined = refine_clusters(shards, engine)
    local_representatives = [refined[cluster_index] for cluster_index in range(k)]

    return LocalPhaseOutput(
        peer_id=phase_input.peer_id,
        assignment=assignment,
        local_representatives=local_representatives,
        cluster_sizes=cluster_sizes,
        compute_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- #
# The collaborative algorithm
# --------------------------------------------------------------------------- #
class CXKMeans:
    """Collaborative distributed XK-means over a simulated P2P network.

    Parameters
    ----------
    config:
        Clustering configuration shared by every peer.
    cost_model:
        Cost model used by the simulated network to convert traffic into
        simulated communication time.
    """

    def __init__(
        self,
        config: ClusteringConfig,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.config = config
        self.cost_model = cost_model or CostModel()
        self._shared_cache = TagPathSimilarityCache()
        self._engine = SimilarityEngine(
            config.similarity,
            cache=self._shared_cache,
            backend=config.backend,
        )

    @property
    def engine(self) -> SimilarityEngine:
        """The engine shared by every simulated node."""
        return self._engine

    # ------------------------------------------------------------------ #
    # Transport selection
    # ------------------------------------------------------------------ #
    def _make_network(self, peers):
        """Build (and start) the transport selected by ``config.network``."""
        if self.config.network == "real":
            # imported lazily: realnet pulls the codec stack in, which only
            # real runs need
            from repro.network.realnet import RealNetwork

            network = RealNetwork(
                peers,
                cost_model=self.cost_model,
                phase_config=self.config,
                connect_timeout=self.config.network_timeout,
                round_timeout=self.config.network_timeout,
            )
            network.start()
            return network
        # the simulated local phases assign every share each round, on
        # this engine
        self._engine.fix_row_sets([peer.transactions for peer in peers])
        return SimulatedNetwork(peers, cost_model=self.cost_model)

    # ------------------------------------------------------------------ #
    # Seeding
    # ------------------------------------------------------------------ #
    def _initial_global_representatives(
        self,
        partitions: Sequence[Sequence[Transaction]],
        responsibilities: Sequence[Sequence[int]],
        rng: random.Random,
    ) -> Dict[int, Transaction]:
        """Select the initial global representatives (one per cluster).

        Every peer seeds the clusters it is responsible for using
        transactions of its own local share drawn from distinct source
        documents; when a peer cannot supply enough seeds (tiny partitions),
        the missing clusters are seeded from the remaining data so that every
        cluster starts from a valid representative.
        """
        seeds: Dict[int, Transaction] = {}
        used_ids = set()
        for peer_index, cluster_ids in enumerate(responsibilities):
            local = list(partitions[peer_index])
            if not cluster_ids:
                continue
            count = min(len(cluster_ids), len(local))
            selected = select_seed_transactions(local, count, rng) if count else []
            for cluster_id, seed in zip(cluster_ids, selected):
                seeds[cluster_id] = seed
                used_ids.add(seed.transaction_id)
        missing = [
            cluster_id
            for cluster_ids in responsibilities
            for cluster_id in cluster_ids
            if cluster_id not in seeds
        ]
        if missing:
            pool = [
                transaction
                for partition in partitions
                for transaction in partition
                if transaction.transaction_id not in used_ids
            ]
            if len(pool) < len(missing):
                raise ValueError(
                    "not enough transactions to seed every cluster: "
                    f"{len(missing)} clusters missing, {len(pool)} transactions left"
                )
            extra = select_seed_transactions(pool, len(missing), rng)
            for cluster_id, seed in zip(missing, extra):
                seeds[cluster_id] = seed
        return seeds

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def fit(
        self, partitions: Sequence[Sequence[Transaction]]
    ) -> ClusteringResult:
        """Run CXK-means over the given per-peer data partitions.

        Parameters
        ----------
        partitions:
            One list of transactions per peer (typically produced by
            :func:`repro.core.partition.partition`).  A single partition
            reduces the algorithm to its centralized behaviour.
        """
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

        # --- N0 startup: partition cluster ids, create peers and network --- #
        responsibilities = partition_cluster_ids(k, m)
        peers = make_peers(partitions, responsibilities)
        network = self._make_network(peers)
        try:
            return self._collaborate(
                network=network,
                peers=peers,
                partitions=partitions,
                responsibilities=responsibilities,
                rng=rng,
                start=start,
            )
        finally:
            # both transports expose close(); for the real network this
            # shuts the worker processes down even when a round failed
            network.close()

    def _collaborate(
        self,
        *,
        network,
        peers,
        partitions,
        responsibilities,
        rng,
        start,
    ) -> ClusteringResult:
        """Run the collaborative rounds on an already-started transport."""
        k = self.config.k
        m = len(partitions)
        total_transactions = sum(len(partition) for partition in partitions)
        with network.round():
            for peer in peers:
                network.send(
                    Message(
                        sender=-1,
                        recipient=peer.peer_id,
                        kind=MessageKind.SETUP,
                        payload={
                            "responsibilities": responsibilities,
                            "k": k,
                            "gamma": self.config.gamma,
                        },
                    )
                )

        # --- initial global representatives --------------------------------- #
        global_representatives = self._initial_global_representatives(
            partitions, responsibilities, rng
        )

        # latest local representatives / sizes known for every (peer, cluster)
        latest_local: List[List[Optional[Transaction]]] = [
            [None] * k for _ in range(m)
        ]
        latest_sizes: List[List[int]] = [[0] * k for _ in range(m)]
        previous_local: List[List[Optional[Transaction]]] = [
            [None] * k for _ in range(m)
        ]
        last_outputs: List[Optional[LocalPhaseOutput]] = [None] * m

        iterations = 0
        converged = False

        while iterations < self.config.max_iterations:
            iterations += 1
            network.begin_round()

            # -- broadcast of global representatives --------------------------- #
            ordered_representatives = [global_representatives[j] for j in range(k)]
            for peer in peers:
                payload = representative_payload(
                    [
                        (cluster_id, global_representatives[cluster_id], 0)
                        for cluster_id in peer.responsibilities
                    ]
                )
                network.broadcast(
                    peer.peer_id, MessageKind.GLOBAL_REPRESENTATIVES, payload
                )

            # -- local phases (conceptually parallel across peers) ------------- #
            inputs = [
                LocalPhaseInput(
                    peer_id=peer.peer_id,
                    transactions=peer.transactions,
                    global_representatives=ordered_representatives,
                )
                for peer in peers
            ]
            # the real transport's workers run on their own engines and
            # ignore the runner
            outputs = network.run_local_phases(
                inputs, partial(run_local_phase, engine=self._engine)
            )
            for output in outputs:
                last_outputs[output.peer_id] = output

            # -- flags and exchange of local representatives ------------------- #
            flags: List[str] = []
            for output in outputs:
                peer_id = output.peer_id
                changed = any(
                    not representatives_equal(
                        previous_local[peer_id][j], output.local_representatives[j]
                    )
                    for j in range(k)
                )
                previous_local[peer_id] = list(output.local_representatives)
                latest_local[peer_id] = list(output.local_representatives)
                latest_sizes[peer_id] = list(output.cluster_sizes)
                if not changed:
                    flags.append("done")
                    network.broadcast(peer_id, MessageKind.FLAG, {"state": "done"})
                    continue
                flags.append("continue")
                network.broadcast(peer_id, MessageKind.FLAG, {"state": "continue"})
                # send each local representative to the responsible peer
                per_recipient: Dict[int, List[Tuple[int, Transaction, int]]] = {}
                for responsible_peer, cluster_ids in enumerate(responsibilities):
                    if responsible_peer == peer_id:
                        continue
                    entries = [
                        (j, output.local_representatives[j], output.cluster_sizes[j])
                        for j in cluster_ids
                    ]
                    if entries:
                        per_recipient[responsible_peer] = entries
                for recipient, entries in per_recipient.items():
                    network.send(
                        Message(
                            sender=peer_id,
                            recipient=recipient,
                            kind=MessageKind.LOCAL_REPRESENTATIVES,
                            payload=representative_payload(entries),
                        )
                    )

            if all(flag == "done" for flag in flags):
                converged = True
                network.end_round()
                break

            # -- global representative computation (by responsible peers) ------ #
            for peer in peers:
                if not peer.responsibilities:
                    continue
                with network.measure_compute(peer.peer_id):
                    shards = []
                    for cluster_id in peer.responsibilities:
                        weighted = [
                            (latest_local[i][cluster_id], latest_sizes[i][cluster_id])
                            for i in range(m)
                            if latest_local[i][cluster_id] is not None
                        ]
                        if not any(weight for _, weight in weighted):
                            # no peer has members for this cluster yet: keep the
                            # current global representative so the cluster can
                            # still attract transactions later
                            continue
                        shards.append(
                            RefinementShard(
                                cluster_index=cluster_id,
                                members=[rep for rep, _ in weighted],
                                weights=[weight for _, weight in weighted],
                                representative_id=f"rep:global:{cluster_id}",
                            )
                        )
                    if shards:
                        global_representatives.update(
                            refine_clusters(shards, self._engine)
                        )
            network.end_round()

        # --- final clustering: merge per-peer assignments --------------------- #
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
                "algorithm": "CXK-means",
                "k": k,
                "peers": m,
                "f": self.config.f,
                "gamma": self.config.gamma,
                "transactions": total_transactions,
                "partition_sizes": [len(partition) for partition in partitions],
            },
        )
