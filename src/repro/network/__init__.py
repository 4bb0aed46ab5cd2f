"""Simulated P2P network substrate: peers, messages, stats, cost model."""

from repro.network.costmodel import CostModel, saturation_point, speedup_curve
from repro.network.message import Message, MessageKind, representative_payload
from repro.network.mpengine import RefinementShard, refine_clusters
from repro.network.peer import Peer, make_peers
from repro.network.simnet import SimulatedNetwork
from repro.network.stats import NetworkStats, RoundStats

__all__ = [
    "Message",
    "MessageKind",
    "representative_payload",
    "Peer",
    "make_peers",
    "SimulatedNetwork",
    "NetworkStats",
    "RoundStats",
    "CostModel",
    "saturation_point",
    "speedup_curve",
    "RefinementShard",
    "refine_clusters",
]
