"""Benchmark B-stream -- streaming out-of-core ingestion vs batch clustering.

Exercises :mod:`repro.core.streaming` end to end and gates the three
properties the streaming path promises:

**Replay parity.**  A streamed replay of the corpus with
``chunk_size=None`` (everything in one chunk, i.e. ``chunk_size=inf``)
must be **bit-exact** with batch XK-means: the bootstrap IS a batch fit
and :meth:`StreamingClusterer.finalize` returns that result object
untouched when nothing streamed after it.  Finite chunk sizes are
inherently approximate -- the bootstrap seeds from the first chunk only
and later chunks are assigned against drifting representatives -- so
they gate on an overall F-measure against the batch partition (trash
included on both sides) of at least ``--min-parity``.  The default
tolerance of **0.7** is documented from measurement: DBLP at scale 1.0
agrees at ~0.80 for chunk sizes 32/64/128.  Each chunk size also
reports streamed throughput in docs/sec.

**Delta-only compile.**  Appending a block to a chain a warm backend is
attached to must compile only the new transactions: after a zero-copy
attach the base corpus compiles for free (``corpus_compile_count == 0``)
and :meth:`extend_corpus` over the appended chunk raises the counter by
exactly the chunk size, never the corpus size.

**Bounded RSS.**  Per scale in ``--scales`` the driver spools the corpus
to per-chunk pickles, then probes two fresh subprocesses (``ru_maxrss``
is monotonic per process, so each measurement needs its own): *batch*
loads the entire spool and fits; *streamed* loads one chunk at a time
into an out-of-core block chain (``keep_members=False``).  The gate
(full mode only -- small quick scales are noise): batch peak RSS must
grow from the smallest to the largest scale, while streamed peak RSS
stays flat within ``--rss-flat-factor``.

Run standalone (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_streaming.py           # full run
    PYTHONPATH=src python benchmarks/bench_streaming.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_streaming.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Sequence, Tuple

# script-local sibling module (benchmarks/ is sys.path[0] when a bench
# script runs standalone): the shared --json report writer
from benchjson import BenchReport

from repro.core.config import ClusteringConfig
from repro.core.streaming import StreamingClusterer, stream_chunks
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.evaluation.fmeasure import overall_f_measure
from repro.similarity.corpus_store import BlockCorpusStore
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine


def _config(args: argparse.Namespace, chunk_size: Optional[int] = None) -> ClusteringConfig:
    """The clustering configuration shared by every section."""
    base = ClusteringConfig(
        k=args.k,
        similarity=SimilarityConfig(f=args.f, gamma=args.gamma),
        seed=args.seed,
        max_iterations=args.max_iterations,
        backend="numpy",
    )
    return base.with_streaming(chunk_size=chunk_size)


def _canonical(partition: Sequence[Sequence[str]]) -> List[Tuple[str, ...]]:
    """Order-independent canonical form of a partition (for equality)."""
    return sorted(tuple(sorted(cluster)) for cluster in partition)


def _reference(partition: Sequence[Sequence[str]]):
    """The batch partition as an ``id -> label`` reference mapping."""
    return {
        transaction_id: f"c{index}"
        for index, cluster in enumerate(partition)
        for transaction_id in cluster
    }


def _stream(transactions, config: ClusteringConfig, chunk_size: Optional[int]):
    """One timed streamed replay; returns (clusterer, result, seconds)."""
    clusterer = StreamingClusterer(config)
    start = time.perf_counter()
    for chunk in stream_chunks(transactions, chunk_size):
        clusterer.ingest(chunk)
    result = clusterer.finalize()
    return clusterer, result, time.perf_counter() - start


# --------------------------------------------------------------------------- #
# Section 1: replay parity + throughput
# --------------------------------------------------------------------------- #
def bench_replay(args: argparse.Namespace, report: BenchReport) -> List[str]:
    """Streamed replays vs one batch fit; returns gate failures."""
    failures: List[str] = []
    dataset = get_dataset(args.corpus, scale=args.scale, seed=args.seed)
    transactions = dataset.transactions
    size = len(transactions)

    batch_config = _config(args)
    start = time.perf_counter()
    batch = XKMeans(batch_config).fit(transactions)
    batch_seconds = time.perf_counter() - start
    batch_partition = batch.partition(include_trash=True)
    reference = _reference(batch_partition)
    report.record(
        backend="numpy",
        op="batch-fit",
        size=size,
        seconds=batch_seconds,
        docs_per_sec=size / batch_seconds if batch_seconds else None,
    )

    # chunk_size=inf replay: MUST be bit-exact with the batch fit
    clusterer, result, seconds = _stream(transactions, _config(args), None)
    streamed_partition = clusterer.partition(include_trash=True)
    bit_exact = _canonical(streamed_partition) == _canonical(batch_partition)
    parity = overall_f_measure(streamed_partition, reference)
    report.record(
        backend="numpy",
        op="stream-replay",
        size=size,
        seconds=seconds,
        parity=bit_exact,
        f_measure=parity,
        chunk_size=None,
        bit_exact=bit_exact,
        docs_per_sec=size / seconds if seconds else None,
        re_refinements=result.metadata.get("streaming", {}).get("re_refinements", 0),
    )
    print(
        f"replay chunk=inf : parity={parity:.3f} bit_exact={bit_exact} "
        f"({size / seconds:.1f} docs/sec)"
    )
    if not bit_exact:
        failures.append("chunk_size=inf streamed replay is not bit-exact with batch")

    for chunk_size in args.chunk_sizes:
        clusterer, result, seconds = _stream(
            transactions, _config(args, chunk_size), chunk_size
        )
        streamed_partition = clusterer.partition(include_trash=True)
        parity = overall_f_measure(streamed_partition, reference)
        stats = result.metadata.get("streaming", {})
        report.record(
            backend="numpy",
            op="stream-replay",
            size=size,
            seconds=seconds,
            parity=parity >= args.min_parity,
            f_measure=parity,
            chunk_size=chunk_size,
            bit_exact=False,
            docs_per_sec=size / seconds if seconds else None,
            re_refinements=stats.get("re_refinements", 0),
        )
        print(
            f"replay chunk={chunk_size:<4d}: parity={parity:.3f} "
            f"re_refinements={stats.get('re_refinements', 0)} "
            f"({size / seconds:.1f} docs/sec)"
        )
        if parity < args.min_parity:
            failures.append(
                f"chunk_size={chunk_size} parity {parity:.3f} "
                f"below tolerance {args.min_parity}"
            )
    return failures


# --------------------------------------------------------------------------- #
# Section 2: delta-only compile on a warm chain
# --------------------------------------------------------------------------- #
def bench_delta_compile(args: argparse.Namespace, report: BenchReport) -> List[str]:
    """Warm block-append must compile only the appended transactions."""
    failures: List[str] = []
    dataset = get_dataset(args.corpus, scale=args.scale, seed=args.seed)
    transactions = dataset.transactions
    split = (2 * len(transactions)) // 3
    base, delta = transactions[:split], transactions[split:]
    config = _config(args)

    work_dir = tempfile.mkdtemp(prefix="bench-stream-chain-")
    try:
        writer = SimilarityEngine(config.similarity, backend="numpy")
        chain = BlockCorpusStore.create(os.path.join(work_dir, "chain"), config.similarity)
        chain.append_block(base, writer.cache)

        # fresh engine, warm zero-copy attach: the base corpus is free
        engine = SimilarityEngine(config.similarity, backend="numpy")
        store = BlockCorpusStore.open(chain.directory)
        store.bind_transactions(base)
        if not store.attach(engine.backend):
            failures.append("warm chain attach was rejected by a pristine backend")
            return failures
        engine.backend.compile_corpus(base)
        base_compiled = engine.backend.corpus_compile_count
        if base_compiled != 0:
            failures.append(
                f"warm attach recompiled {base_compiled} base transactions "
                "(expected 0)"
            )

        start = time.perf_counter()
        extended = engine.backend.extend_corpus(delta)
        seconds = time.perf_counter() - start
        total = engine.backend.corpus_compile_count
        if extended != len(delta) or total != len(delta):
            failures.append(
                f"extend_corpus compiled {extended} / counter {total} "
                f"(expected exactly the {len(delta)}-transaction delta)"
            )
        report.record(
            backend="numpy",
            op="delta-compile",
            size=len(delta),
            seconds=seconds,
            base_size=len(base),
            base_compiled=base_compiled,
            compiled=extended,
        )
        print(
            f"delta compile    : base={len(base)} compiled={base_compiled}, "
            f"append={len(delta)} compiled={extended}"
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return failures


# --------------------------------------------------------------------------- #
# Section 3: bounded RSS via fresh-subprocess probes over a chunk spool
# --------------------------------------------------------------------------- #
def _peak_rss_kb() -> int:
    """This process' peak resident set size in KB (ru_maxrss)."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KB on Linux but bytes on macOS
    return usage // 1024 if sys.platform == "darwin" else usage


def build_spool(args: argparse.Namespace, scale: float, spool_dir: str) -> int:
    """Write the corpus at *scale* as per-chunk pickles; returns its size."""
    dataset = get_dataset(args.corpus, scale=scale, seed=args.seed)
    transactions = dataset.transactions
    for index, chunk in enumerate(stream_chunks(transactions, args.chunk_sizes[0])):
        path = os.path.join(spool_dir, f"chunk-{index:05d}.pkl")
        with open(path, "wb") as handle:
            pickle.dump(chunk, handle)
    return len(transactions)


def run_rss_probe(args: argparse.Namespace) -> int:
    """``--rss-probe`` mode: one clustering run in this fresh process.

    ``batch`` loads every spooled chunk up front and batch-fits the
    whole corpus; ``stream`` loads one chunk at a time and ingests it
    into an out-of-core block chain, so no more than a chunk of parsed
    transactions is ever needed in memory.  Prints one JSON line.
    """
    baseline = _peak_rss_kb()
    spool = sorted(
        os.path.join(args.spool, name)
        for name in os.listdir(args.spool)
        if name.startswith("chunk-") and name.endswith(".pkl")
    )
    chunk_size = args.chunk_sizes[0]
    count = 0
    start = time.perf_counter()
    if args.rss_probe == "batch":
        transactions = []
        for path in spool:
            with open(path, "rb") as handle:
                transactions.extend(pickle.load(handle))
        count = len(transactions)
        XKMeans(_config(args)).fit(transactions)
    else:
        chain_dir = os.path.join(args.spool, "chain")
        shutil.rmtree(chain_dir, ignore_errors=True)
        config = _config(args, chunk_size)
        store = BlockCorpusStore.create(chain_dir, config.similarity)
        clusterer = StreamingClusterer(config, store=store, keep_members=False)
        for path in spool:
            with open(path, "rb") as handle:
                chunk = pickle.load(handle)
            count += len(chunk)
            clusterer.ingest(chunk)
        clusterer.finalize()
    seconds = time.perf_counter() - start
    peak = _peak_rss_kb()
    print(
        json.dumps(
            {
                "mode": args.rss_probe,
                "transactions": count,
                "seconds": seconds,
                "peak_rss_kb": peak,
                "delta_rss_kb": peak - baseline,
            }
        )
    )
    return 0


def probe_peak_rss(args: argparse.Namespace, spool_dir: str, mode: str):
    """Measure *mode* over *spool_dir* in a fresh subprocess."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--corpus",
        args.corpus,
        "--k",
        str(args.k),
        "--f",
        str(args.f),
        "--gamma",
        str(args.gamma),
        "--seed",
        str(args.seed),
        "--max-iterations",
        str(args.max_iterations),
        "--chunk-sizes",
        str(args.chunk_sizes[0]),
        "--rss-probe",
        mode,
        "--spool",
        spool_dir,
    ]
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=900, check=True
        )
        return json.loads(completed.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError, OSError):
        return None


def bench_rss(args: argparse.Namespace, report: BenchReport) -> List[str]:
    """Probe peak RSS per scale; gate flatness of the streamed path."""
    failures: List[str] = []
    rows = []
    for scale in args.scales:
        spool_dir = tempfile.mkdtemp(prefix=f"bench-stream-spool-{scale}-")
        try:
            size = build_spool(args, scale, spool_dir)
            row = {"scale": scale, "size": size}
            for mode in ("stream", "batch"):
                probe = probe_peak_rss(args, spool_dir, mode)
                if probe is None:
                    failures.append(f"{mode} RSS probe failed at scale {scale}")
                    continue
                row[mode] = probe
                report.record(
                    backend="numpy",
                    op=f"{mode}-rss",
                    size=size,
                    seconds=probe["seconds"],
                    scale=scale,
                    peak_rss_kb=probe["peak_rss_kb"],
                    delta_rss_kb=probe["delta_rss_kb"],
                )
                print(
                    f"rss scale={scale:<4}: {mode:>6} peak={probe['peak_rss_kb']}K "
                    f"(+{probe['delta_rss_kb']}K over baseline, "
                    f"{probe['seconds']:.1f}s)"
                )
            rows.append(row)
        finally:
            shutil.rmtree(spool_dir, ignore_errors=True)

    if args.quick:
        print("note: bounded-RSS gate skipped in --quick (scales too small)")
        return failures
    complete = [row for row in rows if "stream" in row and "batch" in row]
    if len(complete) < 2:
        failures.append("bounded-RSS gate needs at least two probed scales")
        return failures
    first, last = complete[0], complete[-1]
    batch_growth = last["batch"]["peak_rss_kb"] - first["batch"]["peak_rss_kb"]
    stream_ratio = last["stream"]["peak_rss_kb"] / max(
        first["stream"]["peak_rss_kb"], 1
    )
    print(
        f"rss gate         : batch +{batch_growth}K from scale "
        f"{first['scale']} -> {last['scale']}, streamed x{stream_ratio:.2f}"
    )
    if batch_growth <= 0:
        failures.append(
            "batch peak RSS did not grow across scales -- probe cannot "
            "distinguish the streamed path"
        )
    if stream_ratio > args.rss_flat_factor:
        failures.append(
            f"streamed peak RSS grew x{stream_ratio:.2f} from scale "
            f"{first['scale']} to {last['scale']} "
            f"(flatness bound x{args.rss_flat_factor})"
        )
    return failures


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", default="DBLP", help="synthetic corpus name")
    parser.add_argument("--scale", type=float, default=1.0, help="parity corpus scale")
    parser.add_argument("--k", type=int, default=4, help="number of representatives")
    parser.add_argument("--f", type=float, default=0.5, help="structure/content blend")
    parser.add_argument("--gamma", type=float, default=0.85, help="gamma threshold")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--max-iterations", type=int, default=6)
    parser.add_argument(
        "--chunk-sizes",
        type=int,
        nargs="+",
        default=[32, 64, 128],
        help="streamed chunk sizes; the first also drives the RSS spool",
    )
    parser.add_argument(
        "--scales",
        type=float,
        nargs="+",
        default=[1.0, 5.0],
        help="corpus scales probed by the bounded-RSS section",
    )
    parser.add_argument(
        "--min-parity",
        type=float,
        default=0.7,
        help="documented streamed-vs-batch F-measure tolerance",
    )
    parser.add_argument(
        "--rss-flat-factor",
        type=float,
        default=1.35,
        help="streamed peak RSS may grow at most this factor across --scales",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small corpus, small scales, RSS gate reports only",
    )
    parser.add_argument("--json", default=None, help="write a benchjson report here")
    parser.add_argument(
        "--rss-probe",
        choices=("stream", "batch"),
        default=None,
        help=argparse.SUPPRESS,  # internal: fresh-process peak-RSS probe
    )
    parser.add_argument(
        "--spool",
        default=None,
        help=argparse.SUPPRESS,  # internal: chunk-pickle spool directory
    )
    args = parser.parse_args(argv)

    if args.rss_probe is not None:
        if not args.spool:
            parser.error("--rss-probe requires --spool")
        return run_rss_probe(args)

    if args.quick:
        args.scale = min(args.scale, 0.5)
        args.chunk_sizes = args.chunk_sizes[:1] or [16]
        args.chunk_sizes = [min(args.chunk_sizes[0], 16)]
        args.scales = [0.25, 0.5]

    report = BenchReport(
        "bench_streaming.py",
        corpus=args.corpus,
        scale=args.scale,
        k=args.k,
        f=args.f,
        gamma=args.gamma,
        seed=args.seed,
        chunk_sizes=args.chunk_sizes,
        scales=args.scales,
        min_parity=args.min_parity,
        rss_flat_factor=args.rss_flat_factor,
        quick=args.quick,
    )
    failures: List[str] = []
    failures += bench_replay(args, report)
    failures += bench_delta_compile(args, report)
    failures += bench_rss(args, report)

    if args.json:
        report.write(args.json)
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("all streaming gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
