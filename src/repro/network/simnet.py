"""A discrete, round-based simulation of the P2P network.

The simulated network executes the peers of a distributed algorithm
sequentially on one host while accounting for what *would* happen on a real
cluster:

* every message is delivered instantly but recorded in the
  :class:`~repro.network.stats.NetworkStats` (count, transactions, items,
  abstract size units);
* the computation time of every peer is measured with a wall-clock timer
  while its work for the round runs;
* at the end of each round the simulated elapsed time advances by
  ``max(peer compute times) + communication_time(round traffic)``, i.e. the
  compute phases of the peers are assumed to run in parallel while the
  traffic is charged according to the :class:`~repro.network.costmodel.CostModel`.

This mirrors the structure of the paper's complexity analysis (Sec. 4.3.4),
where total time is the sum of a parallelisable main-memory term and a
communication term that grows with the number of peers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.network.costmodel import CostModel
from repro.network.message import Message, MessageKind
from repro.network.peer import Peer
from repro.network.stats import NetworkStats


class SimulatedNetwork:
    """Round-based simulator connecting a set of :class:`Peer` objects."""

    def __init__(
        self,
        peers: Sequence[Peer],
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.peers: List[Peer] = list(peers)
        self._by_id: Dict[int, Peer] = {peer.peer_id: peer for peer in self.peers}
        self.cost_model = cost_model or CostModel()
        self.stats = NetworkStats()
        self.simulated_seconds = 0.0
        self._round_index = -1
        self._round_open = False

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    def peer(self, peer_id: int) -> Peer:
        """Return the peer with the given identifier."""
        return self._by_id[peer_id]

    def peer_ids(self) -> List[int]:
        return [peer.peer_id for peer in self.peers]

    def size(self) -> int:
        """Return the number of peers (``m``)."""
        return len(self.peers)

    # ------------------------------------------------------------------ #
    # Round management
    # ------------------------------------------------------------------ #
    def begin_round(self) -> int:
        """Open a new collaborative round; returns its index."""
        self._round_index += 1
        self._round_open = True
        self.stats.start_round(self._round_index)
        return self._round_index

    def end_round(self) -> float:
        """Close the round and advance the simulated clock.

        Returns the simulated duration of the round.
        """
        if not self._round_open:
            raise RuntimeError("end_round() called with no open round")
        round_stats = self.stats.current_round()
        comm_seconds = self.cost_model.communication_seconds(
            round_stats.transferred_transactions, round_stats.transferred_units
        )
        duration = round_stats.max_compute_seconds() + comm_seconds
        self.simulated_seconds += duration
        self._round_open = False
        return duration

    @contextmanager
    def round(self) -> Iterator[int]:
        """Context manager wrapping :meth:`begin_round` / :meth:`end_round`."""
        index = self.begin_round()
        try:
            yield index
        finally:
            self.end_round()

    @contextmanager
    def measure_compute(self, peer_id: int) -> Iterator[None]:
        """Measure the wall-clock time of a peer's computation in this round."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stats.record_compute(peer_id, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> None:
        """Deliver *message* to its recipient and record the traffic.

        Messages a peer sends to itself are neither delivered nor accounted
        (a node does not use the network to talk to itself).  Sending with
        no open round is a programming error: the traffic would land in an
        auto-created round-0 record that a later :meth:`begin_round`
        shadows with a duplicate ``RoundStats(0)``, so the phantom round's
        bytes would never be charged by :meth:`end_round` -- the message
        counts fed to the cost model would silently disagree with the
        recorded statistics.
        """
        if message.sender == message.recipient:
            return
        if not self._round_open:
            raise RuntimeError(
                "send() called with no open round: every message must be "
                "accounted to a round (wrap the exchange in network.round())"
            )
        message.round_index = max(self._round_index, 0)
        self.stats.record_message(message)
        self._by_id[message.recipient].deliver(message)

    def broadcast(
        self,
        sender: int,
        kind: MessageKind,
        payload,
    ) -> int:
        """Send the same payload from *sender* to every other peer.

        Returns the number of messages sent (``m - 1``).
        """
        count = 0
        for peer in self.peers:
            if peer.peer_id == sender:
                continue
            self.send(
                Message(sender=sender, recipient=peer.peer_id, kind=kind, payload=payload)
            )
            count += 1
        return count

    # ------------------------------------------------------------------ #
    # Local phases
    # ------------------------------------------------------------------ #
    def run_local_phases(self, inputs, runner):
        """Execute this round's per-peer local phases and record their time.

        The transport-neutral entry point shared with
        :class:`~repro.network.realnet.RealNetwork`: the algorithm drivers
        hand over the phase inputs and get one output per peer back, with
        ``compute_seconds`` recorded into the round statistics.  On the
        simulated transport the phases run serially in this process, each
        on its peer's shared engine.
        """
        outputs = [
            runner(phase_input, engine=self.peer(phase_input.peer_id).engine)
            for phase_input in inputs
        ]
        for output in outputs:
            self.stats.record_compute(output.peer_id, output.compute_seconds)
        return outputs

    def close(self) -> None:
        """Release transport resources (a no-op for the simulation).

        Exists so algorithm drivers can ``finally: network.close()`` without
        branching on the transport type.
        """

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, float]:
        """Return traffic and timing aggregates for the whole run."""
        summary = self.stats.as_dict()
        summary["simulated_seconds"] = self.simulated_seconds
        summary["communication_seconds"] = self.cost_model.communication_seconds(
            self.stats.total_transferred_transactions(),
            self.stats.total_transferred_units(),
        )
        summary["peers"] = float(self.size())
        return summary
