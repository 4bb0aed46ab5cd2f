"""Peers of the simulated P2P network.

A :class:`Peer` owns a local portion of the transaction set and the
responsibilities assigned by the startup process (the subset ``Z_i`` of
cluster identifiers whose global representatives it must compute).  It
holds no engine: on the simulated transport the algorithm runs every
peer's local phase on its own engine, and the real transport ships the
share to a worker that builds its own.

The peer object is intentionally algorithm-agnostic: both CXK-means and the
PK-means baseline exchange their messages through the same
:class:`~repro.network.simnet.SimulatedNetwork` accounting, which keeps
their communication volumes directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.transactions.transaction import Transaction


@dataclass
class Peer:
    """A network peer with a local data share and its responsibilities."""

    peer_id: int
    transactions: List[Transaction] = field(default_factory=list)
    #: Cluster identifiers whose *global* representative this peer computes.
    responsibilities: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Peer({self.peer_id}, {len(self.transactions)} transactions, "
            f"Z={self.responsibilities})"
        )


def make_peers(
    partitions: Sequence[Sequence[Transaction]],
    responsibilities: Sequence[Sequence[int]],
) -> List[Peer]:
    """Create one peer per data partition with the given responsibilities."""
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
        )
        for index, (partition, assigned) in enumerate(zip(partitions, responsibilities))
    ]
