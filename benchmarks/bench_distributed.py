"""Benchmark D1 -- the real TCP transport vs. the simulated network.

Runs the same seeded CXK-means fit twice -- once on the simulated network
(sequential peers, cost-model timing) and once with every peer as a real
process over localhost TCP -- and reports:

* wall-clock of both fits (the real transport pays process spawn and wire
  serialisation; it buys genuinely parallel local phases),
* bit-exact parity of the two clusterings (the transport's core guarantee),
* the measured wire traffic (``wire_bytes`` / ``control_bytes``) next to
  the cost model's *predicted* communication seconds for the identical
  message trace.

Usage::

    PYTHONPATH=src python benchmarks/bench_distributed.py --quick --json out.json
    PYTHONPATH=src python benchmarks/bench_distributed.py --peers 5 --scale 0.5
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

# script-local sibling module (benchmarks/ is sys.path[0] when a bench
# script runs standalone): the shared --json report writer
from benchjson import BenchReport

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.partition import partition_equally
from repro.datasets.registry import cluster_count, get_dataset
from repro.evaluation.reporting import format_table
from repro.similarity.item import SimilarityConfig


def _fit(config: ClusteringConfig, parts) -> tuple:
    """Fit CXK-means on *parts*; returns (result, wall seconds)."""
    started = time.perf_counter()
    result = CXKMeans(config).fit(parts)
    return result, time.perf_counter() - started


def _parity(sim_result, real_result) -> bool:
    """Bit-exact parity of the two clusterings."""
    if sim_result.assignments(include_trash=True) != real_result.assignments(
        include_trash=True
    ):
        return False
    sim_reps = [
        [item.item_id for item in cluster.representative.items]
        for cluster in sim_result.clusters
    ]
    real_reps = [
        [item.item_id for item in cluster.representative.items]
        for cluster in real_result.clusters
    ]
    return sim_reps == real_reps


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", default="DBLP", help="synthetic corpus name")
    parser.add_argument("--scale", type=float, default=0.5, help="corpus scale factor")
    parser.add_argument("--peers", type=int, default=3, help="number of peers")
    parser.add_argument("--backend", default="numpy", help="similarity backend spec")
    parser.add_argument("--f", type=float, default=0.5, help="structure/content blend")
    parser.add_argument("--gamma", type=float, default=0.4, help="gamma threshold")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--max-iterations", type=int, default=4, help="maximum collaborative rounds"
    )
    parser.add_argument(
        "--network-timeout",
        type=float,
        default=120.0,
        help="per-round deadline of the real transport (seconds)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller corpus and fewer iterations",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write a machine-readable report (benchjson schema) to PATH",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.scale = min(args.scale, 0.3)
        args.max_iterations = min(args.max_iterations, 3)

    dataset = get_dataset(args.corpus, scale=args.scale, seed=args.seed)
    k = cluster_count(args.corpus, "hybrid")
    parts = partition_equally(dataset.transactions, args.peers, seed=args.seed)
    base = ClusteringConfig(
        k=k,
        similarity=SimilarityConfig(f=args.f, gamma=args.gamma),
        seed=args.seed,
        max_iterations=args.max_iterations,
        backend=args.backend,
    )

    sim_result, sim_seconds = _fit(base, parts)
    real_result, real_seconds = _fit(
        base.with_network("real", args.network_timeout), parts
    )
    parity = _parity(sim_result, real_result)
    real_net = real_result.network

    report = BenchReport(
        "bench_distributed",
        corpus=args.corpus,
        scale=args.scale,
        peers=args.peers,
        k=k,
        transactions=len(dataset.transactions),
        seed=args.seed,
        max_iterations=args.max_iterations,
        quick=args.quick,
        cpus=os.cpu_count() or 1,
    )
    report.record(
        backend=args.backend,
        op="fit_sim",
        size=len(dataset.transactions),
        seconds=sim_seconds,
        parity=None,
        peers=args.peers,
        iterations=sim_result.iterations,
        predicted_seconds=sim_result.network["simulated_seconds"],
    )
    report.record(
        backend=args.backend,
        op="fit_real",
        size=len(dataset.transactions),
        seconds=real_seconds,
        parity=parity,
        peers=args.peers,
        iterations=real_result.iterations,
        wire_bytes=real_net["wire_bytes"],
        control_bytes=real_net["control_bytes"],
        measured_wall_seconds=real_net["measured_wall_seconds"],
        predicted_seconds=real_net["simulated_seconds"],
        predicted_communication_seconds=real_net["communication_seconds"],
    )

    print()
    print(
        format_table(
            ["transport", "wall s", "iterations", "wire bytes", "parity"],
            [
                ["sim", f"{sim_seconds:.3f}", sim_result.iterations, "-", "-"],
                [
                    "real",
                    f"{real_seconds:.3f}",
                    real_result.iterations,
                    int(real_net["wire_bytes"]),
                    parity,
                ],
            ],
            title=(
                f"Distributed transport -- {args.corpus} scale={args.scale}, "
                f"{args.peers} peers, k={k} ({args.backend})"
            ),
        )
    )
    print(
        "predicted communication: "
        f"{real_net['communication_seconds']:.4f}s over "
        f"{int(real_net['messages'])} messages; measured wire: "
        f"{int(real_net['wire_bytes'])} B algorithm + "
        f"{int(real_net['control_bytes'])} B control in "
        f"{real_net['measured_wall_seconds']:.3f}s of round wall-clock"
    )
    if args.json:
        report.write(args.json)
    if not parity:
        print("PARITY FAILURE: sim and real clusterings differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
