"""Streaming quickstart: ingest a corpus chunk by chunk, out of core.

This example walks the streaming ingestion path of
``docs/ARCHITECTURE.md`` ("Streaming ingestion & the block store")
end to end, entirely in-process:

1. generate a synthetic DBLP corpus and pretend it arrives as a stream
   of small chunks (a feed, a crawler, a message queue),
2. bootstrap a :class:`~repro.core.streaming.StreamingClusterer` on the
   first chunks, then ingest the rest incrementally -- each chunk is
   delta-compiled onto the warm engine and appended to an on-disk
   **block chain** (:class:`~repro.similarity.corpus_store.BlockCorpusStore`),
   so earlier chunks never recompile and older blocks stay on disk,
3. watch the drift signal trigger bounded re-refinements as the stream's
   population shifts,
4. finalize, and compare the streamed partition against a one-shot batch
   fit of the identical corpus (the replay-parity story of
   ``benchmarks/bench_streaming.py``),
5. replay the same stream as ONE chunk to show the bit-exactness anchor:
   ``chunk_size >= corpus`` *is* the batch fit.

Run with ``PYTHONPATH=src python examples/streaming_quickstart.py``.
The equivalent CLI is ``cxk stream --model DIR --corpus DBLP
--chunk-size 16 --out-of-core`` (or pipe XML paths via ``--stdin``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ClusteringConfig, SimilarityConfig, XKMeans
from repro.core.streaming import StreamingClusterer, stream_chunks
from repro.datasets.registry import get_dataset
from repro.evaluation.fmeasure import overall_f_measure
from repro.similarity.corpus_store import BlockCorpusStore

SCALE = 0.3  # raise for a bigger corpus (and a slower example)
CHUNK = 12


def make_config(chunk_size):
    """One configuration shared by the batch and streamed fits."""
    return ClusteringConfig(
        k=4,
        similarity=SimilarityConfig(f=0.5, gamma=0.8),
        seed=0,
        max_iterations=4,
        backend="numpy",
    ).with_streaming(chunk_size=chunk_size)


def main() -> None:
    dataset = get_dataset("DBLP", scale=SCALE, seed=0)
    transactions = dataset.transactions
    print(f"corpus: {len(transactions)} transactions (DBLP scale {SCALE})\n")

    # -- 1-3: stream the corpus into an out-of-core block chain ---------
    with tempfile.TemporaryDirectory() as tmp:
        config = make_config(CHUNK)
        store = BlockCorpusStore.create(Path(tmp) / "blocks", config.similarity)
        clusterer = StreamingClusterer(config, store=store, keep_members=False)
        for index, chunk in enumerate(stream_chunks(transactions, CHUNK)):
            clusterer.ingest(chunk)
            phase = "bootstrap" if index == 0 else "ingest"
            print(
                f"chunk {index:2d} ({phase:9s}): {len(chunk):3d} docs, "
                f"drift={clusterer.drift:.2f}, "
                f"re_refinements={clusterer.stats.re_refinements}"
            )
        streamed = clusterer.finalize()
        stats = streamed.metadata["streaming"]
        print(
            f"\nstreamed : {stats['blocks_appended']} blocks on disk, "
            f"{store.transaction_count} rows, "
            f"{stats['re_refinements']} re-refinements "
            f"(churn {stats['churn']:.2f})"
        )
        streamed_partition = clusterer.partition(include_trash=True)

    # -- 4: compare against a one-shot batch fit of the same corpus -----
    batch = XKMeans(make_config(None)).fit(transactions)
    batch_partition = batch.partition(include_trash=True)
    reference = {
        transaction_id: f"c{index}"
        for index, cluster in enumerate(batch_partition)
        for transaction_id in cluster
    }
    agreement = overall_f_measure(streamed_partition, reference)
    print(f"parity   : overall F vs batch = {agreement:.3f} (chunked replay)")

    # -- 5: one big chunk IS the batch fit (bit-exact) -------------------
    one_shot = StreamingClusterer(make_config(None))
    one_shot.ingest(transactions)
    one_shot.finalize()
    canonical = lambda parts: sorted(tuple(sorted(c)) for c in parts)  # noqa: E731
    exact = canonical(one_shot.partition(include_trash=True)) == canonical(
        batch_partition
    )
    print(f"anchor   : chunk_size=inf replay bit-exact with batch = {exact}")
    assert exact, "one-big-chunk streaming must equal the batch fit"


if __name__ == "__main__":
    main()
