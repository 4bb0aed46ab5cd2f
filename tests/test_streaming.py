"""Property and regression tests for streaming ingestion.

:mod:`repro.core.streaming` promises that a streamed replay of a corpus
behaves like batch XK-means regardless of how the stream was chunked:

* **corpus preservation** -- any chunking yields a partition carrying
  every transaction exactly once (hypothesis property);
* **bit-exactness anchor** -- one big chunk (``chunk_size=None`` or
  ``>= corpus``) IS the batch fit: identical partition object semantics;
* **bounded state** -- the retained set never exceeds the configured
  capacity and the drift signal stays inside ``[0, 1]`` at every step;
* **drift edges** -- a lower drift threshold can only re-refine more
  often; ``drift_threshold=1.0`` defers until the retained set is full;
* **convergence** -- finite chunkings agree with the batch partition to
  a measured overall-F tolerance (trash included on both sides);
* **edge streams** -- empty and under-``k`` streams fail loudly at
  :meth:`finalize`, never silently return a partial clustering.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.core.config import ClusteringConfig
from repro.core.streaming import StreamingClusterer, stream_chunks
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import get_dataset
from repro.evaluation.fmeasure import overall_f_measure
from repro.similarity.corpus_store import BlockCorpusStore, clear_store_cache
from repro.similarity.item import SimilarityConfig


@pytest.fixture(autouse=True)
def isolated_caches():
    """The store cache never leaks between streaming tests."""
    clear_store_cache()
    yield
    clear_store_cache()


@pytest.fixture(scope="module")
def dblp_tiny():
    return get_dataset("DBLP", scale=0.2, seed=0)


def make_config(
    chunk_size=None, retain_threshold=0.25, drift_threshold=0.5, backend="numpy"
) -> ClusteringConfig:
    return ClusteringConfig(
        k=4,
        similarity=SimilarityConfig(f=0.5, gamma=0.8),
        seed=0,
        max_iterations=4,
        backend=backend,
    ).with_streaming(
        chunk_size=chunk_size,
        retain_threshold=retain_threshold,
        drift_threshold=drift_threshold,
    )


def replay(transactions, chunk_size, **config_kwargs):
    """Stream *transactions* in *chunk_size* chunks; return the clusterer."""
    clusterer = StreamingClusterer(make_config(chunk_size, **config_kwargs))
    for chunk in stream_chunks(transactions, chunk_size):
        clusterer.ingest(chunk)
    return clusterer


@pytest.fixture(scope="module")
def batch_reference(dblp_tiny):
    """The batch partition as an ``id -> label`` reference mapping."""
    result = XKMeans(make_config()).fit(dblp_tiny.transactions)
    partition = result.partition(include_trash=True)
    reference = {
        transaction_id: f"c{index}"
        for index, cluster in enumerate(partition)
        for transaction_id in cluster
    }
    return partition, reference


def canonical(partition):
    return sorted(tuple(sorted(cluster)) for cluster in partition)


def representative_items(representatives):
    """Every representative's items, in order, with their exact vectors."""
    return [
        [
            (item.item_id, item.path, item.answer, item.terms, list(item.vector.items()))
            for item in representative.items
        ]
        for representative in representatives
    ]


# --------------------------------------------------------------------------- #
# Properties over arbitrary chunkings
# --------------------------------------------------------------------------- #
class TestChunkingProperties:
    @given(chunk_size=st.integers(min_value=1, max_value=50))
    @settings(max_examples=12, deadline=None)
    def test_any_chunking_preserves_the_corpus(self, dblp_tiny, chunk_size):
        """No chunking loses or duplicates a transaction, and the
        retained set stays within its capacity at every ingest step."""
        transactions = dblp_tiny.transactions
        clusterer = StreamingClusterer(make_config(chunk_size))
        for chunk in stream_chunks(transactions, chunk_size):
            clusterer.ingest(chunk)
            assert 0.0 <= clusterer.drift <= 1.0
            assert len(clusterer._retained) <= clusterer.retain_capacity
        result = clusterer.finalize()
        streamed = sorted(
            transaction_id
            for cluster in clusterer.partition(include_trash=True)
            for transaction_id in cluster
        )
        assert streamed == sorted(t.transaction_id for t in transactions)
        stats = result.metadata.get("streaming", {})
        if stats:  # multi-chunk replays report bounded retained peaks
            assert stats["retained_peak"] <= clusterer.retain_capacity

    def test_one_big_chunk_is_the_batch_fit(self, dblp_tiny, batch_reference):
        """chunk_size=None (and >= corpus) return the bootstrap result
        object unchanged -- streaming degenerates to batch, bit-exact."""
        batch_partition, _ = batch_reference
        for chunk_size in (None, len(dblp_tiny.transactions) + 5):
            clusterer = replay(dblp_tiny.transactions, chunk_size)
            result = clusterer.finalize()
            assert result is clusterer._bootstrap_result
            assert canonical(
                clusterer.partition(include_trash=True)
            ) == canonical(batch_partition)

    @pytest.mark.parametrize("chunk_size", [4, 8, 16])
    def test_finite_chunkings_converge_to_batch_parity(
        self, dblp_tiny, batch_reference, chunk_size
    ):
        """Measured tolerance: DBLP scale 0.2 agrees at ~0.70-0.76 for
        these chunk sizes; the gate leaves slack for seeding noise."""
        _, reference = batch_reference
        clusterer = replay(dblp_tiny.transactions, chunk_size)
        clusterer.finalize()
        agreement = overall_f_measure(
            clusterer.partition(include_trash=True), reference
        )
        assert agreement >= 0.65

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_out_of_core_replay_matches_in_memory(
        self, dblp_tiny, tmp_path, monkeypatch, backend
    ):
        """A block-chain-backed replay partitions and refines exactly like
        in-memory, and never reads its chain back: a re-refinement reads
        each cluster's newest members from memory."""
        in_memory = replay(dblp_tiny.transactions, 8, backend=backend)
        in_memory.finalize()

        def refuse(*args, **kwargs):
            raise AssertionError("a stream must not read its block chain")

        monkeypatch.setattr(BlockCorpusStore, "resolve_rows", refuse)
        monkeypatch.setattr(BlockCorpusStore, "_load_block_transactions", refuse)
        config = make_config(8, backend=backend)
        store = BlockCorpusStore.create(tmp_path / "chain", config.similarity)
        out_of_core = StreamingClusterer(config, store=store, keep_members=False)
        for chunk in stream_chunks(dblp_tiny.transactions, 8):
            out_of_core.ingest(chunk)
        result = out_of_core.finalize()
        assert result.metadata["streaming"]["re_refinements"] > 0
        assert out_of_core.partition(include_trash=True) == in_memory.partition(
            include_trash=True
        )
        assert representative_items(out_of_core.representatives) == (
            representative_items(in_memory.representatives)
        )
        assert result.metadata["streaming"]["blocks_appended"] == len(
            stream_chunks(dblp_tiny.transactions, 8)
        )
        assert store.transaction_count == len(dblp_tiny.transactions)

    def test_stream_into_a_reopened_chain_partitions_like_a_fresh_chain(
        self, dblp_tiny, tmp_path
    ):
        """A stream appends its blocks after the ones a reopened chain
        already holds, and clusters as if the chain were fresh."""
        config = make_config(8)
        held = get_dataset("IEEE", scale=0.2, seed=0).transactions
        BlockCorpusStore.create(tmp_path / "held", config.similarity).append_block(
            held
        )
        runs = []
        for store in (
            BlockCorpusStore.create(tmp_path / "fresh", config.similarity),
            BlockCorpusStore.open(tmp_path / "held"),
        ):
            clusterer = StreamingClusterer(config, store=store, keep_members=False)
            for chunk in stream_chunks(dblp_tiny.transactions, 8):
                clusterer.ingest(chunk)
            result = clusterer.finalize()
            runs.append(
                (
                    canonical(clusterer.partition(include_trash=True)),
                    result.metadata["streaming"]["re_refinements"],
                )
            )
        assert runs[0][1] > 0
        assert runs[1] == runs[0]
        assert store.transaction_count == len(held) + len(dblp_tiny.transactions)


# --------------------------------------------------------------------------- #
# Drift and retention edges
# --------------------------------------------------------------------------- #
class TestDriftEdges:
    def re_refinements(self, transactions, drift_threshold):
        clusterer = replay(transactions, 8, drift_threshold=drift_threshold)
        return clusterer.finalize().metadata["streaming"]["re_refinements"]

    def test_lower_drift_threshold_refines_at_least_as_often(self, dblp_tiny):
        counts = [
            self.re_refinements(dblp_tiny.transactions, threshold)
            for threshold in (0.1, 0.5, 1.0)
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > 0  # the eager edge actually fires

    def test_drift_threshold_one_defers_until_full(self, dblp_tiny):
        """At the 1.0 edge a re-refinement needs a *full* retained set."""
        clusterer = StreamingClusterer(make_config(8, drift_threshold=1.0))
        for chunk in stream_chunks(dblp_tiny.transactions, 8):
            before = clusterer.stats.re_refinements
            clusterer.ingest(chunk)
            if clusterer.stats.re_refinements == before:
                assert clusterer.drift < 1.0

    def test_a_chunk_larger_than_the_capacity_evicts_the_oldest(self, dblp_tiny):
        """More parked transactions than the retained set holds commit the
        oldest at once: the set never exceeds its capacity and no
        transaction is lost."""
        transactions = dblp_tiny.transactions
        clusterer = StreamingClusterer(
            make_config(4, retain_threshold=1.0, drift_threshold=1.0)
        )
        clusterer.ingest(transactions[:20])
        chunk = transactions[20:]
        scores = clusterer.engine.assign_all(chunk, clusterer.representatives)
        parked = sum(1 for _, similarity in scores if similarity < 1.0)
        assert parked > clusterer.retain_capacity
        clusterer.ingest(chunk)
        assert clusterer.stats.retained_peak == clusterer.retain_capacity
        clusterer.finalize()
        members = [t for cluster in clusterer.partition(include_trash=True) for t in cluster]
        assert sorted(members) == sorted(t.transaction_id for t in transactions)

    def test_zero_retain_threshold_parks_only_zero_similarity(self, dblp_tiny):
        """retain_threshold=0.0: anything with positive similarity commits
        immediately, so the retained set only ever holds trash candidates."""
        clusterer = StreamingClusterer(make_config(8, retain_threshold=0.0))
        for chunk in stream_chunks(dblp_tiny.transactions, 8):
            clusterer.ingest(chunk)
            assert all(
                parked.best_similarity == 0.0
                for parked in clusterer._retained.values()
            )
        result = clusterer.finalize()
        assert result.metadata["streaming"]["flushed_to_trash"] == len(
            result.trash.members
        )


# --------------------------------------------------------------------------- #
# Edge streams and helpers
# --------------------------------------------------------------------------- #
class TestEdgeStreams:
    def test_empty_stream_cannot_finalize(self):
        clusterer = StreamingClusterer(make_config())
        with pytest.raises(RuntimeError, match="bootstrap"):
            clusterer.finalize()

    def test_under_k_stream_cannot_finalize(self, dblp_tiny):
        clusterer = StreamingClusterer(make_config())
        clusterer.ingest(dblp_tiny.transactions[:2])  # k=4: not bootstrapped
        assert not clusterer.bootstrapped
        with pytest.raises(RuntimeError, match="need at least"):
            clusterer.finalize()

    def test_empty_chunk_changes_nothing(self, dblp_tiny):
        clusterer = StreamingClusterer(make_config())
        assert clusterer.ingest([]) == 0
        clusterer.ingest(dblp_tiny.transactions[:8])
        before = clusterer.stats.as_dict()
        assert clusterer.ingest([]) == 0
        assert clusterer.stats.as_dict() == before

    def test_checkpoint_before_bootstrap_fails(self, dblp_tiny):
        clusterer = StreamingClusterer(make_config())
        clusterer.ingest(dblp_tiny.transactions[:2])
        with pytest.raises(RuntimeError, match="cannot checkpoint before bootstrap"):
            clusterer.checkpoint_result()

    def test_stream_chunks_edges(self, dblp_tiny):
        transactions = dblp_tiny.transactions
        assert stream_chunks([], 8) == []
        assert stream_chunks(transactions, None) == [list(transactions)]
        chunks = stream_chunks(transactions, 7)
        assert [t for chunk in chunks for t in chunk] == list(transactions)
        assert all(len(chunk) <= 7 for chunk in chunks)

    def test_checkpoint_result_is_light_and_non_destructive(self, dblp_tiny):
        """A checkpoint snapshot does not flush retained state or change
        the final partition."""
        plain = replay(dblp_tiny.transactions, 8)
        plain.finalize()
        checkpointed = StreamingClusterer(make_config(8))
        for chunk in stream_chunks(dblp_tiny.transactions, 8):
            checkpointed.ingest(chunk)
            if checkpointed.bootstrapped:
                snapshot = checkpointed.checkpoint_result()
                assert snapshot.metadata["checkpoint"] is True
        checkpointed.finalize()
        assert canonical(
            checkpointed.partition(include_trash=True)
        ) == canonical(plain.partition(include_trash=True))
