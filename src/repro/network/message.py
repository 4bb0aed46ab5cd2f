"""Messages exchanged between peers of the (simulated) P2P network.

It also defines :class:`LocalPhaseOutput`, what a peer's local phase
returns to the driver on either transport.

CXK-means peers exchange three kinds of payloads (Fig. 5):

* ``GLOBAL_REPRESENTATIVES`` -- a node broadcasts the global representatives
  it is responsible for to every other node;
* ``LOCAL_REPRESENTATIVES`` -- a node sends the local representative (and the
  local cluster size) of cluster ``j`` to the node responsible for ``j``;
* ``FLAG`` -- the per-iteration ``done`` / ``continue`` state flag;
* ``SETUP`` -- the startup message from ``N0`` carrying the partition of the
  cluster identifiers, ``k`` and ``gamma``.

Message sizes are estimated in *transferred transactions* and *transferred
items*, matching the units of the paper's communication-complexity analysis
(the cost of transferring a transaction is ``O(|tr_max| * |u_max|)``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.transactions.transaction import Transaction


class MessageKind(Enum):
    """The kinds of messages used by the distributed algorithms."""

    SETUP = "setup"
    GLOBAL_REPRESENTATIVES = "global_representatives"
    LOCAL_REPRESENTATIVES = "local_representatives"
    FLAG = "flag"


_message_counter = itertools.count()


@dataclass
class Message:
    """A single point-to-point message.

    Attributes
    ----------
    sender / recipient:
        Peer identifiers (integers); ``-1`` denotes the startup process N0.
    kind:
        The :class:`MessageKind`.
    payload:
        Arbitrary payload; representative messages carry lists of
        ``(cluster_id, Transaction, weight)`` tuples.
    round_index:
        The collaborative iteration during which the message was sent.
    """

    sender: int
    recipient: int
    kind: MessageKind
    payload: Any = None
    round_index: int = 0
    message_id: int = field(default_factory=lambda: next(_message_counter))

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    def transactions(self) -> List[Transaction]:
        """Return the transactions carried by the payload (possibly empty)."""
        if self.kind in (
            MessageKind.GLOBAL_REPRESENTATIVES,
            MessageKind.LOCAL_REPRESENTATIVES,
        ):
            return [entry[1] for entry in (self.payload or [])]
        return []

    def transaction_count(self) -> int:
        """Number of transactions (representatives) carried by the message."""
        return len(self.transactions())

    def item_count(self) -> int:
        """Total number of items carried by the message."""
        return sum(len(transaction) for transaction in self.transactions())

    def size_units(self) -> float:
        """Estimated transfer size in 'item units'.

        A transaction of ``n`` items with TCU vectors of total dimensionality
        ``d`` costs roughly ``n + d`` units; flag and setup messages cost one
        unit.  The unit is deliberately abstract -- the cost model converts
        it into simulated seconds.
        """
        transactions = self.transactions()
        if not transactions:
            return 1.0
        units = 0.0
        for transaction in transactions:
            units += len(transaction)
            units += sum(len(item.vector) for item in transaction.items)
        return max(units, 1.0)


def representative_payload(
    entries: Sequence[Tuple[int, Transaction, int]]
) -> List[Tuple[int, Transaction, int]]:
    """Normalise a representative payload to a list of (cluster, rep, weight)."""
    return [(int(cluster), transaction, int(weight)) for cluster, transaction, weight in entries]


@dataclass
class LocalPhaseOutput:
    """Output of one peer's local phase (Fig. 5's per-peer loop).

    The algorithms read it in the driver, and the real transport's
    ``RESULT`` frames carry it from a peer worker.

    Attributes
    ----------
    peer_id:
        The peer that produced this output.
    assignment:
        Mapping transaction_id -> cluster index (``-1`` for trash).
    local_representatives:
        One local representative per cluster (empty transactions for local
        clusters with no members).
    cluster_sizes:
        ``|C^i_j|`` for every cluster ``j``.
    compute_seconds:
        Wall-clock time spent inside the phase (used by the simulated
        network's parallel-time model).
    """

    peer_id: int
    assignment: Dict[str, int]
    local_representatives: List[Transaction]
    cluster_sizes: List[int]
    compute_seconds: float
