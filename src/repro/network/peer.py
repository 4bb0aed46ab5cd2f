"""Peers of the simulated P2P network.

A :class:`Peer` owns a local portion of the transaction set and the
responsibilities assigned by the startup process (the subset ``Z_i`` of
cluster identifiers whose global representatives it must compute).

The peer object is intentionally algorithm-agnostic: both CXK-means and the
PK-means baseline exchange their messages through the same
:class:`~repro.network.simnet.SimulatedNetwork` accounting, which keeps
their communication volumes directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction


@dataclass
class Peer:
    """A network peer with a local data share and its responsibilities."""

    peer_id: int
    transactions: List[Transaction] = field(default_factory=list)
    #: Cluster identifiers whose *global* representative this peer computes.
    responsibilities: List[int] = field(default_factory=list)
    #: Similarity engine used for the peer's local phases.  When several
    #: simulated nodes run in one process the algorithms attach the *same*
    #: engine to every peer, so all nodes share one tag-path cache and one
    #: compiled backend corpus; ``None`` means "let the execution engine
    #: pick a per-process engine".
    engine: Optional[SimilarityEngine] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    def local_size(self) -> int:
        """Return ``|S_i|``: the number of locally stored transactions."""
        return len(self.transactions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Peer({self.peer_id}, {len(self.transactions)} transactions, "
            f"Z={self.responsibilities})"
        )


def make_peers(
    partitions: Sequence[Sequence[Transaction]],
    responsibilities: Sequence[Sequence[int]],
    engine: Optional[SimilarityEngine] = None,
) -> List[Peer]:
    """Create one peer per data partition with the given responsibilities.

    When *engine* is provided every peer shares it (single-process
    simulation: one tag-path cache and one compiled similarity corpus for
    the whole network).
    """
    if len(partitions) != len(responsibilities):
        raise ValueError(
            "partitions and responsibilities must have the same length "
            f"({len(partitions)} != {len(responsibilities)})"
        )
    return [
        Peer(
            peer_id=index,
            transactions=list(partition),
            responsibilities=list(assigned),
            engine=engine,
        )
        for index, (partition, assigned) in enumerate(zip(partitions, responsibilities))
    ]
