"""Simulated P2P network substrate: peers, messages, stats, cost model."""

from repro.network.costmodel import CostModel, saturation_point, speedup_curve
from repro.network.message import Message, MessageKind, representative_payload
from repro.network.mpengine import (
    MultiprocessingExecutor,
    RefinementShard,
    clear_process_engines,
    clear_shard_executors,
    process_engine,
    refine_clusters,
    refine_shard,
    shard_executor,
    split_refinement_budget,
)
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
    "MultiprocessingExecutor",
    "RefinementShard",
    "refine_shard",
    "refine_clusters",
    "shard_executor",
    "clear_shard_executors",
    "split_refinement_budget",
    "process_engine",
    "clear_process_engines",
]
