"""Benchmark B1 -- python vs. numpy similarity backend on the hot path.

Measures the assignment step (``SimilarityEngine.assign_all``: every
transaction against every cluster representative, the inner loop of
XK-means / PK-means / CXK-means) and a full XK-means ``fit`` on a synthetic
generator corpus, once per benchmarked backend (``--backends``, default
``python numpy``), and reports the speedup of each backend over the
pure-Python reference.  All backends are verified to produce *identical*
assignments before any timing is trusted.

A second mode, ``--size-sweep``, benchmarks across the named corpus scales
of :data:`repro.datasets.registry.SIZE_SWEEP_SCALES` (``scale-1`` /
``scale-5`` / ``scale-20``): per (backend, size) it times the assignment
step and reports where the python -> numpy crossover falls (one
``crossover`` record per size names the fastest measured backend).

Run standalone (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_backend.py            # full run
    PYTHONPATH=src python benchmarks/bench_backend.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_backend.py --size-sweep

The full run uses the DBLP generator corpus at scale 1.0 (>= 200
transactions, k >= 5) and fails with a non-zero exit status unless the
numpy backend is at least ``--min-speedup`` (default 3.0) times faster on
the assignment step; the quick run shrinks the corpus and only reports.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

# script-local sibling module (benchmarks/ is sys.path[0] when a bench
# script runs standalone): the shared --json report writer
from benchjson import BenchReport, reference_speedup

from repro.core.config import ClusteringConfig
from repro.core.seeding import select_seed_transactions
from repro.similarity.backend import BackendUnavailableError
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine


def _time_best(function, repeats: int) -> Tuple[float, object]:
    """Return (best wall-clock seconds, last result) over *repeats* calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_assign(
    dataset,
    backend: str,
    k: int,
    f: float,
    gamma: float,
    seed: int,
    repeats: int,
) -> Tuple[float, List[Tuple[int, float]]]:
    """Time the bulk assignment step for one backend (warm measurements).

    The engine is prepared the way the experiment driver does it: tag-path
    cache precomputed, corpus compiled.  Returns the best time and the
    assignment itself (for cross-backend verification).
    """
    engine = SimilarityEngine(
        SimilarityConfig(f=f, gamma=gamma),
        cache=TagPathSimilarityCache(),
        backend=backend,
    )
    transactions = dataset.transactions
    engine.cache.precompute(
        {item.tag_path for transaction in transactions for item in transaction.items}
    )
    engine.backend.compile_corpus(transactions)
    representatives = select_seed_transactions(transactions, k, random.Random(seed))
    # warm-up outside the timed region (content memo, transient compiles)
    engine.assign_all(transactions, representatives)
    best, result = _time_best(
        lambda: engine.assign_all(transactions, representatives), repeats
    )
    return best, result


def bench_fit(dataset, backend: str, k: int, f: float, gamma: float, seed: int):
    """Time one full XK-means fit for one backend."""
    config = ClusteringConfig(
        k=k,
        similarity=SimilarityConfig(f=f, gamma=gamma),
        seed=seed,
        max_iterations=6,
        backend=backend,
    )
    algorithm = XKMeans(config)
    start = time.perf_counter()
    result = algorithm.fit(dataset.transactions)
    elapsed = time.perf_counter() - start
    return elapsed, result


def run_size_sweep(args: argparse.Namespace) -> int:
    """``--size-sweep`` mode: backend assignment timings across corpus scales."""
    from repro.datasets.registry import SIZE_SWEEP_SCALES

    labels = args.sweep_scales
    if labels is None:
        labels = ["scale-1"] if args.quick else list(SIZE_SWEEP_SCALES)
    unknown = [label for label in labels if label not in SIZE_SWEEP_SCALES]
    if unknown:
        print(
            f"error: unknown sweep scales {unknown}; "
            f"available: {', '.join(SIZE_SWEEP_SCALES)}"
        )
        return 2
    labels = sorted(dict.fromkeys(labels), key=lambda label: SIZE_SWEEP_SCALES[label])
    repeats = 1 if args.quick else args.repeats

    report = BenchReport(
        "bench_backend",
        mode="size_sweep",
        corpus=args.corpus,
        k=args.k,
        f=args.f,
        gamma=args.gamma,
        seed=args.seed,
        quick=args.quick,
        sweep_scales={label: SIZE_SWEEP_SCALES[label] for label in labels},
        speedup_baseline="python",
    )
    failures: List[str] = []
    for label in labels:
        scale = SIZE_SWEEP_SCALES[label]
        dataset = get_dataset(args.corpus, scale=scale, seed=args.seed)
        size = len(dataset.transactions)
        print(f"[{label}] scale={scale} transactions={size} k={args.k}")

        # --- per-backend assignment timings + crossover ---------------- #
        timings: Dict[str, float] = {}
        reference_assignment = None
        for backend in args.sweep_backends:
            if (
                backend == "python"
                and size > args.python_max_transactions
            ):
                print(
                    f"[{label}] note: python assign skipped at {size} "
                    "transactions (over --python-max-transactions "
                    f"{args.python_max_transactions}); its speedup "
                    "column is null at this size"
                )
                continue
            try:
                seconds, assignment = bench_assign(
                    dataset, backend, args.k, args.f, args.gamma,
                    args.seed, repeats,
                )
            except BackendUnavailableError as error:
                print(f"[{label}] note: {backend} skipped ({error})")
                continue
            first = not timings
            if first:
                reference_assignment = assignment
            parity = None if first else assignment == reference_assignment
            if parity is False:
                failures.append(
                    f"{label}: {backend} assignment disagrees with the "
                    "sweep baseline"
                )
            timings[backend] = seconds
            report.record(
                backend=backend,
                op="assign_all",
                size=size,
                seconds=seconds,
                speedup=reference_speedup(timings, backend),
                parity=parity,
                label=label,
            )
        for backend, seconds in timings.items():
            print(f"[{label}] assign_all {backend:<12} {seconds:>10.4f}s")
        if timings:
            winner = min(timings, key=timings.get)
            print(f"[{label}] crossover winner: {winner}")
            report.record(
                backend=winner,
                op="crossover",
                size=size,
                seconds=timings[winner],
                speedup=reference_speedup(timings, winner),
                parity=None,
                label=label,
                contenders=timings,
            )

    if args.json:
        report.write(args.json)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", default="DBLP", help="synthetic corpus name")
    parser.add_argument("--scale", type=float, default=1.0, help="corpus scale factor")
    parser.add_argument("--k", type=int, default=8, help="number of representatives")
    parser.add_argument("--f", type=float, default=0.5, help="structure/content blend")
    parser.add_argument("--gamma", type=float, default=0.8, help="gamma threshold")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--repeats", type=int, default=3, help="timed repetitions")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="required numpy-over-python speedup on the assignment step",
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
    parser.add_argument(
        "--size-sweep",
        action="store_true",
        help="run the corpus-size sweep instead of the standard benchmark: "
        "per named scale, backend assignment crossovers",
    )
    parser.add_argument(
        "--sweep-scales",
        nargs="+",
        default=None,
        metavar="NAME",
        help="named corpus scales to sweep (repro.datasets.registry."
        "SIZE_SWEEP_SCALES; default: all of them, or scale-1 under --quick)",
    )
    parser.add_argument(
        "--sweep-backends",
        nargs="+",
        default=["python", "numpy"],
        metavar="SPEC",
        help="backend specs timed per sweep size (unavailable backends are "
        "skipped with a note; the first measured one is the parity baseline)",
    )
    parser.add_argument(
        "--python-max-transactions",
        type=int,
        default=2000,
        metavar="N",
        help="skip the python reference in the size sweep above this corpus "
        "size (its speedup columns become null rather than waiting minutes)",
    )
    args = parser.parse_args(argv)
    if args.size_sweep:
        return run_size_sweep(args)

    scale = 0.35 if args.quick else args.scale
    repeats = 1 if args.quick else args.repeats
    dataset = get_dataset(args.corpus, scale=scale, seed=args.seed)
    transactions = len(dataset.transactions)
    print(
        f"corpus={args.corpus} scale={scale} transactions={transactions} "
        f"k={args.k} f={args.f} gamma={args.gamma}"
    )
    if not args.quick and (transactions < 200 or args.k < 5):
        print("error: the full benchmark requires >= 200 transactions and k >= 5")
        return 2

    backends = list(args.backends)
    reference = backends[0]
    assign_times = {}
    assignments = {}
    fit_times = {}
    fit_results = {}
    for backend in backends:
        assign_times[backend], assignments[backend] = bench_assign(
            dataset, backend, args.k, args.f, args.gamma, args.seed, repeats
        )
        fit_times[backend], fit_results[backend] = bench_fit(
            dataset, backend, args.k, args.f, args.gamma, args.seed
        )

    assign_parity = {
        backend: assignments[backend] == assignments[reference]
        for backend in backends[1:]
    }
    fit_parity = {
        backend: fit_results[backend].partition()
        == fit_results[reference].partition()
        for backend in backends[1:]
    }

    # the JSON artifact is written before any parity gate fires, so CI
    # uploads a report (with parity=false rows) even for failing runs
    if args.json:
        report = BenchReport(
            "bench_backend",
            corpus=args.corpus,
            scale=scale,
            transactions=transactions,
            k=args.k,
            f=args.f,
            gamma=args.gamma,
            seed=args.seed,
            quick=args.quick,
            reference=reference,
            speedup_baseline="python",
        )
        for backend in backends:
            is_reference = backend == reference
            report.record(
                backend=backend,
                op="assign_all",
                size=transactions,
                seconds=assign_times[backend],
                speedup=reference_speedup(assign_times, backend),
                parity=None if is_reference else assign_parity[backend],
            )
            report.record(
                backend=backend,
                op="fit",
                size=transactions,
                seconds=fit_times[backend],
                speedup=reference_speedup(fit_times, backend),
                parity=None if is_reference else fit_parity[backend],
            )
        report.write(args.json)

    for backend in backends[1:]:
        if not assign_parity[backend]:
            print(f"FAIL: {backend} disagrees with {reference} on the assignment step")
            return 1
        if not fit_parity[backend]:
            print(f"FAIL: {backend} disagrees with {reference} on the fitted clustering")
            return 1
    print("parity    : identical assignments and identical fitted clusterings")

    print(f"{'step':<12}" + "".join(f"{backend:>16}" for backend in backends))
    print(
        f"{'assign_all':<12}"
        + "".join(f"{assign_times[backend]:>15.4f}s" for backend in backends)
    )
    print(
        f"{'fit':<12}"
        + "".join(f"{fit_times[backend]:>15.4f}s" for backend in backends)
    )
    for backend in backends[1:]:
        print(
            f"speedup over {reference} ({backend}): "
            f"assign_all {assign_times[reference] / assign_times[backend]:.1f}x, "
            f"fit {fit_times[reference] / fit_times[backend]:.1f}x"
        )

    if not args.quick:
        if {"python", "numpy"} <= set(backends):
            assign_speedup = assign_times["python"] / assign_times["numpy"]
            if assign_speedup < args.min_speedup:
                print(
                    f"FAIL: numpy backend only {assign_speedup:.1f}x faster on assign_all "
                    f"(required: {args.min_speedup:.1f}x)"
                )
                return 1
        else:
            print(
                "note: min-speedup gate skipped "
                "(requires both python and numpy in --backends)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
