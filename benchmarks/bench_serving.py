"""Benchmark B4 -- warm-model serving throughput (queries/sec + latency).

Measures the full serving path of :mod:`repro.core.model_store`: fit a
clustering on a synthetic corpus, persist it with ``save_model``, then time

- ``load_model`` per benchmarked backend (JSON decode + tag-path cache
  warm-up from the model directory), and
- ``ClusterModel.classify`` over a query stream of serialized corpus
  documents -- reported as queries/sec with a latency histogram
  (p50/p90/p99 and fixed millisecond buckets), one record per backend.

Classify parity is checked across backends before any timing is trusted:
every backend must assign every query document to the same cluster as the
pure-Python reference, or the run fails.

Run standalone (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_serving.py --json bench-serving.json
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchjson import BenchReport, reference_speedup

from repro.core.config import ClusteringConfig
from repro.core.model_store import load_model, save_model
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_corpus, get_dataset
from repro.similarity.backend import BackendUnavailableError
from repro.similarity.corpus_store import prepare_engine_corpus
from repro.similarity.item import SimilarityConfig
from repro.xmlmodel.serializer import serialize

#: Latency histogram bucket upper bounds in milliseconds (the last bucket
#: is open-ended).
LATENCY_BUCKETS_MS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty list."""
    index = min(
        len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


def latency_histogram(latencies_ms: List[float]) -> Dict[str, int]:
    """Bucket latencies into the fixed :data:`LATENCY_BUCKETS_MS` bins."""
    histogram: Dict[str, int] = {}
    previous = 0.0
    counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
    for value in latencies_ms:
        for index, bound in enumerate(LATENCY_BUCKETS_MS):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    for index, bound in enumerate(LATENCY_BUCKETS_MS):
        histogram[f"le_{bound:g}ms"] = counts[index]
        previous = bound
    histogram[f"gt_{previous:g}ms"] = counts[-1]
    return histogram


def run_benchmark(args: argparse.Namespace) -> int:
    """Fit + save once, then benchmark load and classify per backend."""
    scale = 0.2 if args.quick else args.scale
    queries = 30 if args.quick else args.queries
    report = BenchReport(
        "bench_serving",
        corpus=args.corpus,
        scale=scale,
        queries=queries,
        quick=args.quick,
        fit_backend=args.fit_backend,
        cpus=os.cpu_count() or 1,
    )

    corpus = get_corpus(args.corpus, scale=scale, seed=args.seed)
    documents = [serialize(tree) for tree in corpus.trees]
    dataset = get_dataset(args.corpus, scale=scale, seed=args.seed)
    config = ClusteringConfig(
        k=args.k,
        similarity=SimilarityConfig(f=0.5, gamma=0.8),
        seed=args.seed,
        max_iterations=args.max_iterations,
        backend=args.fit_backend,
    )

    with tempfile.TemporaryDirectory(prefix="bench-serving-") as tmp:
        model_dir = Path(tmp) / "model"
        algorithm = XKMeans(config)
        prepare_engine_corpus(algorithm.engine, dataset.transactions)
        fit_start = time.perf_counter()
        result = algorithm.fit(dataset.transactions)
        fit_seconds = time.perf_counter() - fit_start
        save_model(model_dir, result, config, dataset=dataset)
        print(
            f"fitted {args.corpus} scale={scale} "
            f"({len(dataset.transactions)} transactions, k={config.k}) "
            f"in {fit_seconds:.2f}s; model saved"
        )

        reference_assignments: Optional[List[int]] = None
        classify_seconds: Dict[str, float] = {}
        failures: List[str] = []
        for backend in args.backends:
            try:
                load_start = time.perf_counter()
                model = load_model(model_dir, backend=backend)
                load_seconds = time.perf_counter() - load_start
            except BackendUnavailableError as error:
                print(f"[skip] {backend}: {error}")
                continue
            stats = model.stats()
            report.record(
                backend=backend,
                op="load",
                size=len(dataset.transactions),
                seconds=load_seconds,
                parity=None,
                corpus_compile_count=stats["corpus_compile_count"],
            )

            assignments: List[int] = []
            latencies: List[float] = []
            start = time.perf_counter()
            for index in range(queries):
                document = documents[index % len(documents)]
                query_start = time.perf_counter()
                outcome = model.classify(document)
                latencies.append((time.perf_counter() - query_start) * 1000.0)
                assignments.append(outcome.cluster_id)
            total = time.perf_counter() - start
            classify_seconds[backend] = total

            parity: Optional[bool] = None
            if backend == "python":
                reference_assignments = assignments
            elif reference_assignments is not None:
                parity = assignments == reference_assignments
                if not parity:
                    failures.append(
                        f"{backend}: classify assignments diverge from python"
                    )
            ordered = sorted(latencies)
            stats = model.stats()
            qps = queries / total if total else 0.0
            report.record(
                backend=backend,
                op="classify",
                size=queries,
                seconds=total,
                speedup=reference_speedup(classify_seconds, backend),
                parity=parity,
                qps=qps,
                corpus_compile_count=stats["corpus_compile_count"],
                latency_ms_p50=percentile(ordered, 0.50),
                latency_ms_p90=percentile(ordered, 0.90),
                latency_ms_p99=percentile(ordered, 0.99),
                latency_histogram=latency_histogram(latencies),
            )
            print(
                f"{backend:>14}: load {load_seconds * 1000.0:7.1f}ms, "
                f"{qps:8.1f} q/s, "
                f"p50 {percentile(ordered, 0.50):.2f}ms "
                f"p99 {percentile(ordered, 0.99):.2f}ms"
            )
            model.close()

    if args.json:
        report.write(args.json)
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and run the serving benchmark."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizing")
    parser.add_argument("--corpus", default="DBLP", help="synthetic corpus name")
    parser.add_argument("--scale", type=float, default=0.5, help="corpus scale")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument("--k", type=int, default=8, help="cluster count")
    parser.add_argument(
        "--max-iterations", type=int, default=4, help="fit iteration cap"
    )
    parser.add_argument(
        "--queries", type=int, default=300, help="classify calls per backend"
    )
    parser.add_argument(
        "--fit-backend", default="numpy", help="backend spec used for the fit"
    )
    parser.add_argument(
        "--backends",
        nargs="+",
        default=["python", "numpy"],
        help="backend specs to serve with (python is the parity reference)",
    )
    parser.add_argument("--json", default=None, metavar="PATH", help="JSON report")
    return run_benchmark(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
