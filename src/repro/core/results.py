"""Result objects produced by the clustering algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.transactions.transaction import Transaction


@dataclass
class ClusterInfo:
    """A single cluster: its representative and its member transactions."""

    cluster_id: int
    representative: Optional[Transaction]
    members: List[Transaction] = field(default_factory=list)

    def size(self) -> int:
        return len(self.members)

    def member_ids(self) -> List[str]:
        return [transaction.transaction_id for transaction in self.members]


@dataclass
class ClusteringResult:
    """The outcome of a clustering run.

    Attributes
    ----------
    clusters:
        The ``k`` content clusters, indexed by cluster identifier.
    trash:
        The (k+1)-th *trash* cluster holding transactions with zero
        similarity to every representative.
    iterations:
        Number of outer iterations executed before convergence.
    converged:
        ``True`` when the algorithm stopped because representatives (and
        assignments) stabilised, ``False`` when the iteration cap was hit.
    elapsed_seconds:
        Wall-clock time of the run as measured on the host machine.
    simulated_seconds:
        Modelled parallel runtime (only for distributed algorithms executed
        on the simulated network; ``None`` otherwise).
    network:
        Optional dictionary of network statistics (messages, transferred
        transactions, per-round volumes) for distributed runs.
    metadata:
        Free-form extra information recorded by the algorithm (e.g. number
        of peers, partitioning scheme, algorithm name).
    """

    clusters: List[ClusterInfo]
    trash: ClusterInfo
    iterations: int
    converged: bool
    elapsed_seconds: float = 0.0
    simulated_seconds: Optional[float] = None
    network: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """Number of (non-trash) clusters."""
        return len(self.clusters)

    def trash_size(self) -> int:
        """Return the number of unclustered (trash) transactions."""
        return self.trash.size()

    def assignments(self, include_trash: bool = False) -> Dict[str, int]:
        """Return the mapping transaction_id -> cluster index.

        The trash cluster uses index ``-1`` and is omitted unless
        ``include_trash`` is set.
        """
        mapping: Dict[str, int] = {}
        for cluster in self.clusters:
            for transaction in cluster.members:
                mapping[transaction.transaction_id] = cluster.cluster_id
        if include_trash:
            for transaction in self.trash.members:
                mapping[transaction.transaction_id] = -1
        return mapping

    def partition(self, include_trash: bool = False) -> List[List[str]]:
        """Return the clustering as a list of lists of transaction ids."""
        parts = [cluster.member_ids() for cluster in self.clusters]
        if include_trash:
            parts.append(self.trash.member_ids())
        return parts

    def representatives(self) -> List[Optional[Transaction]]:
        """Return the final representative of every (non-trash) cluster."""
        return [cluster.representative for cluster in self.clusters]


def build_result(
    representatives: Sequence[Optional[Transaction]],
    members: Sequence[Sequence[Transaction]],
    trash_members: Sequence[Transaction],
    iterations: int,
    converged: bool,
    elapsed_seconds: float,
    simulated_seconds: Optional[float] = None,
    network: Optional[Dict[str, float]] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> ClusteringResult:
    """Assemble a :class:`ClusteringResult` from raw algorithm state."""
    clusters = [
        ClusterInfo(cluster_id=index, representative=rep, members=list(cluster_members))
        for index, (rep, cluster_members) in enumerate(zip(representatives, members))
    ]
    trash = ClusterInfo(cluster_id=-1, representative=None, members=list(trash_members))
    return ClusteringResult(
        clusters=clusters,
        trash=trash,
        iterations=iterations,
        converged=converged,
        elapsed_seconds=elapsed_seconds,
        simulated_seconds=simulated_seconds,
        network=dict(network or {}),
        metadata=dict(metadata or {}),
    )
