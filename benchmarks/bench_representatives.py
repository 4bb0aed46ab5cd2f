"""Benchmark B2 -- backend and sharding speedups on representative refinement.

Measures the CXK-means summarisation machinery (``rank_items`` plus the
``GenerateTreeTuple`` candidate-chain scoring inside
``compute_local_representative``) on clusters of a synthetic generator
corpus, once per benchmarked backend (``--backends``, default
``python numpy``), and reports the speedup of each backend over the
reference (the first ``--backends`` entry).  All backends are verified to
produce *identical* representatives -- item for item -- before any timing
is trusted (mirroring ``bench_backend.py``).  ``--json PATH``
additionally writes the shared machine-readable report (see
``benchmarks/benchjson.py``).

A second section measures *cluster-sharded refinement*
(:func:`repro.network.mpengine.refine_clusters`): the same per-cluster
refinement dispatched one cluster per worker process instead of serially,
again parity-checked item for item before timing.

Run standalone (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_representatives.py            # full run
    PYTHONPATH=src python benchmarks/bench_representatives.py --quick    # CI smoke

The full run uses the DBLP generator corpus at scale 1.0 and fails with a
non-zero exit status unless the numpy backend is at least ``--min-speedup``
(default 3.0) times faster on the refinement step and -- on hosts with at
least two CPUs -- the cluster-sharded refinement is at least
``--min-shard-speedup`` (default 2.0) times faster than the serial loop at
k >= 4 with ``--refine-workers`` workers; the quick run shrinks the corpus
and only reports.
"""

from __future__ import annotations

import argparse
import multiprocessing
import random
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

# script-local sibling module (benchmarks/ is sys.path[0] when a bench
# script runs standalone): the shared --json report writer
from benchjson import BenchReport, reference_speedup

from repro.core.representatives import compute_local_representative, rank_items
from repro.core.seeding import select_seed_transactions
from repro.datasets.registry import get_dataset
from repro.network.mpengine import (
    RefinementShard,
    clear_shard_executors,
    refine_clusters,
)
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.transactions.transaction import Transaction


def _time_best(function, repeats: int) -> Tuple[float, object]:
    """Return (best wall-clock seconds, last result) over *repeats* calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def make_clusters(
    dataset, k: int, f: float, gamma: float, seed: int
) -> List[List[Transaction]]:
    """Assign the corpus to ``k`` seed representatives to form real clusters.

    Uses the python reference engine so the benchmarked backends both start
    from the exact same cluster memberships.
    """
    engine = SimilarityEngine(
        SimilarityConfig(f=f, gamma=gamma), cache=TagPathSimilarityCache()
    )
    transactions = dataset.transactions
    representatives = select_seed_transactions(transactions, k, random.Random(seed))
    clusters: List[List[Transaction]] = [[] for _ in range(k)]
    for transaction, (index, similarity) in zip(
        transactions, engine.assign_all(transactions, representatives)
    ):
        if similarity > 0.0:
            clusters[index].append(transaction)
    return [cluster for cluster in clusters if cluster]


def prepared_engine(
    clusters: Sequence[Sequence[Transaction]], backend: str, f: float, gamma: float
) -> SimilarityEngine:
    """Engine prepared the way the experiment driver does it: tag-path
    cache precomputed over the cluster members, corpus compiled.  Shared by
    both benchmark sections so their serial baselines stay comparable."""
    engine = SimilarityEngine(
        SimilarityConfig(f=f, gamma=gamma),
        cache=TagPathSimilarityCache(),
        backend=backend,
    )
    members = [transaction for cluster in clusters for transaction in cluster]
    engine.cache.precompute(
        {item.tag_path for transaction in members for item in transaction.items}
    )
    engine.backend.compile_corpus(members)
    return engine


def bench_refinement(
    clusters: Sequence[Sequence[Transaction]],
    backend: str,
    f: float,
    gamma: float,
    repeats: int,
) -> Tuple[float, float, List[list], List[Transaction]]:
    """Time ranking and full refinement over every cluster for one backend.

    Returns (best ranking seconds, best refinement seconds, per-cluster
    rankings, representatives) -- rankings and representatives are each
    compared across backends before any timing is trusted, so the two
    benchmark sections report parity of the outputs they actually measure.
    """
    engine = prepared_engine(clusters, backend, f, gamma)
    pools = [
        [item for transaction in cluster for item in transaction.items]
        for cluster in clusters
    ]

    def run_ranking():
        return [rank_items(pool, engine) for pool in pools]

    def run_refinement():
        return [
            compute_local_representative(cluster, engine, representative_id=f"rep:{i}")
            for i, cluster in enumerate(clusters)
        ]

    # warm-up outside the timed region (content memo, transient compiles)
    run_ranking()
    run_refinement()
    rank_seconds, rankings = _time_best(run_ranking, repeats)
    refine_seconds, representatives = _time_best(run_refinement, repeats)
    return rank_seconds, refine_seconds, rankings, representatives


def bench_sharded_refinement(
    clusters: Sequence[Sequence[Transaction]],
    backend: str,
    f: float,
    gamma: float,
    repeats: int,
    workers: int,
) -> Tuple[float, float, List[Transaction], List[Transaction]]:
    """Time serial vs. cluster-sharded refinement on the same backend.

    Both paths run through :func:`repro.network.mpengine.refine_clusters`
    -- the serial one with ``workers=1`` on a shared in-process engine, the
    sharded one dispatching one cluster per worker process.  The worker
    pool and the per-worker compiled corpora are warmed up outside the
    timed region (they persist across collaborative rounds in production).
    Returns (serial seconds, sharded seconds, serial representatives,
    sharded representatives).
    """
    engine = prepared_engine(clusters, backend, f, gamma)
    similarity = engine.config

    def shards() -> List[RefinementShard]:
        return [
            RefinementShard(
                cluster_index=index,
                members=list(cluster),
                similarity=similarity,
                backend=backend,
                representative_id=f"rep:{index}",
            )
            for index, cluster in enumerate(clusters)
        ]

    def run_serial():
        refined = refine_clusters(shards(), engine, workers=1)
        return [refined[index] for index in sorted(refined)]

    def run_sharded():
        refined = refine_clusters(shards(), engine, workers=workers)
        return [refined[index] for index in sorted(refined)]

    run_serial()
    run_sharded()  # warm-up: spawns the pool, compiles per-worker corpora
    serial_seconds, serial_reps = _time_best(run_serial, repeats)
    sharded_seconds, sharded_reps = _time_best(run_sharded, repeats)
    return serial_seconds, sharded_seconds, serial_reps, sharded_reps


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", default="DBLP", help="synthetic corpus name")
    parser.add_argument("--scale", type=float, default=1.0, help="corpus scale factor")
    parser.add_argument("--k", type=int, default=8, help="number of clusters")
    parser.add_argument("--f", type=float, default=0.5, help="structure/content blend")
    parser.add_argument("--gamma", type=float, default=0.8, help="gamma threshold")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--repeats", type=int, default=3, help="timed repetitions")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="required numpy-over-python speedup on the refinement step",
    )
    parser.add_argument(
        "--refine-workers",
        type=int,
        default=4,
        help="worker processes for the cluster-sharded refinement section",
    )
    parser.add_argument(
        "--shard-backend",
        default="python",
        help="in-process backend the sharded refinement section runs on",
    )
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=2.0,
        help="required sharded-over-serial refinement speedup at k >= 4 "
        "(enforced only on hosts with >= 2 CPUs)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small corpus, no speedup requirement",
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=["python", "numpy"],
        help="backend specs to benchmark (first one is the reference)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write a machine-readable report (benchjson schema) to PATH",
    )
    args = parser.parse_args(argv)

    scale = 0.35 if args.quick else args.scale
    repeats = 1 if args.quick else args.repeats
    dataset = get_dataset(args.corpus, scale=scale, seed=args.seed)
    clusters = make_clusters(dataset, args.k, args.f, args.gamma, args.seed)
    print(
        f"corpus={args.corpus} scale={scale} "
        f"transactions={len(dataset.transactions)} clusters={len(clusters)} "
        f"f={args.f} gamma={args.gamma}"
    )
    if not clusters:
        print("error: the seed assignment produced no non-empty clusters")
        return 2

    backends = list(args.backends)
    reference = backends[0]
    rank_times: Dict[str, float] = {}
    refine_times: Dict[str, float] = {}
    rankings: Dict[str, List[list]] = {}
    representatives: Dict[str, List[Transaction]] = {}
    for backend in backends:
        (
            rank_times[backend],
            refine_times[backend],
            rankings[backend],
            representatives[backend],
        ) = bench_refinement(clusters, backend, args.f, args.gamma, repeats)

    # parity of each measured output: the rankings themselves for the
    # rank_items section, item-for-item representatives for refinement
    rank_parity = {
        backend: rankings[backend] == rankings[reference]
        for backend in backends[1:]
    }
    mismatches = {
        backend: [
            index
            for index, (rep_reference, rep_backend) in enumerate(
                zip(representatives[reference], representatives[backend])
            )
            if rep_reference.items != rep_backend.items
        ]
        for backend in backends[1:]
    }

    # --- cluster-sharded refinement (one cluster per worker process) ------ #
    workers = args.refine_workers
    cpus = multiprocessing.cpu_count()
    try:
        serial_s, sharded_s, serial_reps, sharded_reps = bench_sharded_refinement(
            clusters, args.shard_backend, args.f, args.gamma, repeats, workers
        )
    finally:
        clear_shard_executors()
    shard_mismatch = [
        index
        for index, (rep_serial, rep_sharded) in enumerate(
            zip(serial_reps, sharded_reps)
        )
        if rep_serial.items != rep_sharded.items
    ]
    shard_speedup = serial_s / sharded_s if sharded_s else float("inf")

    # the JSON artifact is written before any parity gate fires, so CI
    # uploads a report (with parity=false rows) even for failing runs
    if args.json:
        report = BenchReport(
            "bench_representatives",
            corpus=args.corpus,
            scale=scale,
            transactions=len(dataset.transactions),
            clusters=len(clusters),
            f=args.f,
            gamma=args.gamma,
            seed=args.seed,
            quick=args.quick,
            reference=reference,
            speedup_baseline="python",
            shard_backend=args.shard_backend,
        )
        for backend in backends:
            is_reference = backend == reference
            # speedups are over the measured python reference backend; an
            # explicit null when python was excluded via --backends (no
            # baseline exists), never a ratio against another backend
            report.record(
                backend=backend,
                op="rank_items",
                size=len(clusters),
                seconds=rank_times[backend],
                speedup=reference_speedup(rank_times, backend),
                parity=None if is_reference else rank_parity[backend],
            )
            report.record(
                backend=backend,
                op="refinement",
                size=len(clusters),
                seconds=refine_times[backend],
                speedup=reference_speedup(refine_times, backend),
                parity=None if is_reference else not mismatches[backend],
            )
        report.record(
            backend=args.shard_backend,
            op="refinement_serial",
            size=len(clusters),
            seconds=serial_s,
            workers=1,
        )
        report.record(
            backend=args.shard_backend,
            op="refinement_sharded",
            size=len(clusters),
            seconds=sharded_s,
            speedup=None if not sharded_s else serial_s / sharded_s,
            parity=not shard_mismatch,
            workers=workers,
        )
        report.write(args.json)

    for backend in backends[1:]:
        if not rank_parity[backend]:
            print(
                f"FAIL: {backend} disagrees with {reference} on the "
                "cluster item rankings"
            )
            return 1
        if mismatches[backend]:
            print(
                f"FAIL: {backend} disagrees with {reference} on the "
                f"representatives of clusters {mismatches[backend]}"
            )
            return 1
    print("parity    : identical rankings and representatives for every cluster")

    print(f"{'step':<12}" + "".join(f"{backend:>16}" for backend in backends))
    print(
        f"{'rank_items':<12}"
        + "".join(f"{rank_times[backend]:>15.4f}s" for backend in backends)
    )
    print(
        f"{'refinement':<12}"
        + "".join(f"{refine_times[backend]:>15.4f}s" for backend in backends)
    )
    for backend in backends[1:]:
        print(
            f"speedup over {reference} ({backend}): "
            f"rank_items {rank_times[reference] / rank_times[backend]:.1f}x, "
            f"refinement {refine_times[reference] / refine_times[backend]:.1f}x"
        )

    if not args.quick:
        if {"python", "numpy"} <= set(backends):
            refine_speedup = refine_times["python"] / refine_times["numpy"]
            if refine_speedup < args.min_speedup:
                print(
                    f"FAIL: numpy backend only {refine_speedup:.1f}x faster on the "
                    f"refinement step (required: {args.min_speedup:.1f}x)"
                )
                return 1
        else:
            print(
                "note: min-speedup gate skipped "
                "(requires both python and numpy in --backends)"
            )

    if shard_mismatch:
        print(
            "FAIL: serial and sharded refinement disagree on the "
            f"representatives of clusters {shard_mismatch}"
        )
        return 1
    print(
        f"\nsharded refinement parity: identical representatives "
        f"(backend={args.shard_backend}, workers={workers}, cpus={cpus})"
    )
    print(f"{'step':<12}{'serial':>12}{'sharded':>12}{'speedup':>10}")
    print(
        f"{'refinement':<12}{serial_s:>11.4f}s{sharded_s:>11.4f}s"
        f"{shard_speedup:>9.1f}x"
    )
    gate_applies = (
        not args.quick and workers >= 2 and cpus >= 2 and len(clusters) >= 4
    )
    if gate_applies and shard_speedup < args.min_shard_speedup:
        print(
            f"FAIL: cluster-sharded refinement only {shard_speedup:.1f}x faster "
            f"than serial (required: {args.min_shard_speedup:.1f}x at "
            f"k={len(clusters)} with {workers} workers)"
        )
        return 1
    if not gate_applies and not args.quick:
        print(
            "note: sharded-refinement speedup gate skipped "
            f"(workers={workers}, cpus={cpus}, k={len(clusters)}; the gate "
            "needs >= 2 workers, >= 2 CPUs and k >= 4)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
