"""Benchmark B1 -- python vs. numpy similarity backend on the hot path.

Measures the assignment step (``SimilarityEngine.assign_all``: every
transaction against every cluster representative, the inner loop of
XK-means / PK-means / CXK-means) and a full XK-means ``fit`` on a synthetic
generator corpus, once per benchmarked backend (``--backends``, default
``python numpy``; tiled specs like ``numpy:block=64`` work too), and
reports the speedup of each backend over
the pure-Python reference.  All backends are verified to produce
*identical* assignments before any timing is trusted.

A second section sweeps the batch-kernel **tile budget**
(``--tile-sizes``, items per tile side; 0 = unbounded/untiled): per tile
size it times ``assign_all`` on ``numpy:block=N``, asserts bit-exact
parity with the untiled path, reads the backend's peak scratch-block size
(``peak_scratch_entries``) and -- in a fresh subprocess per tile size, so
the measurement is not polluted by earlier allocations -- the process'
peak RSS, demonstrating that peak memory is bounded by the configured
tile size regardless of corpus scale.  All of it lands in the ``--json``
report as per-tile-size records.

A third mode, ``--size-sweep``, benchmarks across the named corpus scales
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
import json
import random
import subprocess
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


def bench_tile(
    dataset,
    block: int,
    k: int,
    f: float,
    gamma: float,
    seed: int,
    repeats: int,
) -> Tuple[float, List[Tuple[int, float]], int]:
    """Time the assignment step on ``numpy:block=<block>`` (warm).

    Returns ``(best seconds, assignment, peak_scratch_entries)``; the
    scratch high-water mark is reset after warm-up so it reflects the
    steady-state assignment kernel alone.
    """
    engine = SimilarityEngine(
        SimilarityConfig(f=f, gamma=gamma),
        cache=TagPathSimilarityCache(),
        backend=f"numpy:block={block}",
    )
    transactions = dataset.transactions
    engine.cache.precompute(
        {item.tag_path for transaction in transactions for item in transaction.items}
    )
    engine.backend.compile_corpus(transactions)
    representatives = select_seed_transactions(transactions, k, random.Random(seed))
    engine.assign_all(transactions, representatives)  # warm-up
    engine.backend.peak_scratch_entries = 0
    best, result = _time_best(
        lambda: engine.assign_all(transactions, representatives), repeats
    )
    return best, result, engine.backend.peak_scratch_entries


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


def _peak_rss_kb() -> int:
    """This process' peak resident set size in KB (ru_maxrss)."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KB on Linux but bytes on macOS
    return usage // 1024 if sys.platform == "darwin" else usage


def run_rss_probe(args: argparse.Namespace) -> int:
    """``--rss-probe`` mode: one tiled assignment in this fresh process.

    Prints a single JSON line with the timing, the kernel's scratch
    high-water mark and this process' peak RSS.  Launched once per tile
    size by :func:`probe_peak_rss`, so every measurement starts from a
    clean high-water mark instead of inheriting the largest earlier
    allocation (``ru_maxrss`` is monotonic within a process).
    """
    dataset = get_dataset(args.corpus, scale=args.scale, seed=args.seed)
    seconds, _, scratch = bench_tile(
        dataset, args.rss_probe, args.k, args.f, args.gamma, args.seed, repeats=1
    )
    print(
        json.dumps(
            {
                "seconds": seconds,
                "scratch_entries": scratch,
                "peak_rss_kb": _peak_rss_kb(),
            }
        )
    )
    return 0


def probe_peak_rss(
    args: argparse.Namespace, scale: float, block: int
) -> Optional[int]:
    """Peak RSS (KB) of one tiled assignment, measured in a fresh process.

    Returns ``None`` when the probe subprocess cannot run (e.g. sandboxed
    environments); the caller records an explicit null instead of a bogus
    number.
    """
    command = [
        sys.executable,
        __file__,
        "--corpus", args.corpus,
        "--scale", str(scale),
        "--k", str(args.k),
        "--f", str(args.f),
        "--gamma", str(args.gamma),
        "--seed", str(args.seed),
        "--rss-probe", str(block),
    ]
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=900, check=True
        )
        probe = json.loads(completed.stdout.strip().splitlines()[-1])
        return int(probe["peak_rss_kb"])
    except Exception:
        return None


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
        "--tile-sizes",
        type=int,
        nargs="+",
        default=[64, 1024, 0],
        metavar="N",
        help="tile budgets (items per side) for the tiled-kernel section; "
        "0 = unbounded/untiled (always measured as the parity baseline)",
    )
    parser.add_argument(
        "--rss-probe",
        type=int,
        default=None,
        help=argparse.SUPPRESS,  # internal: fresh-process peak-RSS probe
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
    if args.rss_probe is not None:
        return run_rss_probe(args)
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
    if any(size < 0 for size in args.tile_sizes):
        print("error: --tile-sizes must be >= 0 (0 = unbounded/untiled)")
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

    # --- tiled kernels: per-tile-size timing, parity, peak memory --------- #
    # the untiled path (block=0) is always measured first as the parity
    # baseline; every other budget must reproduce its assignment bit for
    # bit, and the per-tile scratch high-water mark plus a fresh-process
    # peak-RSS probe demonstrate the memory bound of the tile size
    tile_sizes = [0] + [size for size in dict.fromkeys(args.tile_sizes) if size != 0]
    tile_rows: List[Dict[str, object]] = []
    untiled_assignment = None
    try:
        # only a missing numpy skips the section; any other failure (a
        # kernel crash, a malformed tile size) must propagate so the CI
        # smoke fails instead of silently dropping the tiling gate
        for block in tile_sizes:
            seconds, assignment, scratch = bench_tile(
                dataset, block, args.k, args.f, args.gamma, args.seed, repeats
            )
            if untiled_assignment is None:
                untiled_assignment = assignment
            spec = f"numpy:block={block}"
            tile_rows.append(
                {
                    "backend": spec,
                    "block": block,
                    "seconds": seconds,
                    "parity": assignment == untiled_assignment,
                    "scratch_entries": scratch,
                    "peak_rss_kb": probe_peak_rss(args, scale, block),
                    "speedup": reference_speedup(
                        {**assign_times, spec: seconds}, spec
                    ),
                }
            )
    except BackendUnavailableError as error:  # pragma: no cover - numpy in CI
        print(f"note: tiled-kernel section skipped ({error})")
        tile_rows = []

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
        for row in tile_rows:
            report.record(
                backend=row["backend"],
                op="assign_all_tiled",
                size=transactions,
                seconds=row["seconds"],
                speedup=row["speedup"],
                parity=row["parity"],
                block=row["block"],
                scratch_entries=row["scratch_entries"],
                peak_rss_kb=row["peak_rss_kb"],
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

    tile_mismatches = [row["block"] for row in tile_rows if not row["parity"]]
    if tile_mismatches:
        print(
            "FAIL: tiled kernels disagree with the untiled path at "
            f"tile sizes {tile_mismatches}"
        )
        return 1
    if tile_rows:
        print(
            "tiled     : bit-exact with the untiled path at every tile size"
        )
        print(
            f"{'tile size':>10}{'seconds':>12}{'scratch':>12}{'peak RSS':>12}"
        )
        for row in tile_rows:
            label = "unbounded" if row["block"] == 0 else str(row["block"])
            rss = (
                f"{row['peak_rss_kb']}K"
                if row["peak_rss_kb"] is not None
                else "n/a"
            )
            print(
                f"{label:>10}{row['seconds']:>11.4f}s"
                f"{row['scratch_entries']:>12}{rss:>12}"
            )

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
