"""End-to-end integration tests across the whole pipeline.

These tests exercise the complete flow of Fig. 1(b): XML documents ->
tree tuples -> transactions -> (distributed) clustering -> evaluation, on the
synthetic corpora, and check the qualitative claims of the paper's evaluation
at miniature scale (the benchmarks check them at full scale).
"""

import pytest

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.partition import PartitioningScheme, partition, partition_equally
from repro.core.pkmeans import PKMeans
from repro.core.xkmeans import XKMeans
from repro.datasets.registry import cluster_count, get_corpus, get_dataset
from repro.evaluation.fmeasure import overall_f_measure
from repro.evaluation.metrics import clustering_report
from repro.network.costmodel import CostModel
from repro.similarity.item import SimilarityConfig


SCALE = 0.2
ITERS = 4


@pytest.fixture(scope="module")
def dblp_dataset():
    return get_dataset("DBLP", scale=SCALE, seed=0)


@pytest.fixture(scope="module")
def shakespeare_dataset():
    return get_dataset("Shakespeare", scale=1.0, seed=0)


class TestEndToEndPipeline:
    def test_corpus_to_dataset_to_clustering(self, dblp_dataset):
        config = ClusteringConfig(
            k=cluster_count("DBLP", "content"),
            similarity=SimilarityConfig(f=0.2, gamma=0.7),
            seed=0,
            max_iterations=ITERS,
        )
        parts = partition_equally(dblp_dataset.transactions, 3, seed=0)
        result = CXKMeans(config).fit(parts)
        reference = dblp_dataset.labels_for("content")
        report = clustering_report(result.partition(), reference)
        assert 0.0 < report["f_measure"] <= 1.0
        assert 0.0 < report["purity"] <= 1.0
        assert result.total_clustered() + result.trash_size() == len(dblp_dataset)

    def test_structure_driven_clustering_finds_dblp_categories(self, dblp_dataset):
        config = ClusteringConfig(
            k=cluster_count("DBLP", "structure"),
            similarity=SimilarityConfig(f=0.9, gamma=0.8),
            seed=2,
            max_iterations=ITERS,
        )
        result = XKMeans(config).fit(dblp_dataset.transactions)
        reference = dblp_dataset.labels_for("structure")
        # the four DBLP record layouts are structurally well separated, so a
        # structure-driven run must score high (paper Table 1(c): 0.99)
        assert overall_f_measure(result.partition(), reference) >= 0.75

    def test_shakespeare_content_clustering(self, shakespeare_dataset):
        config = ClusteringConfig(
            k=cluster_count("Shakespeare", "content"),
            similarity=SimilarityConfig(f=0.2, gamma=0.7),
            seed=1,
            max_iterations=ITERS,
        )
        parts = partition_equally(shakespeare_dataset.transactions, 3, seed=1)
        result = CXKMeans(config).fit(parts)
        reference = shakespeare_dataset.labels_for("content")
        assert overall_f_measure(result.partition(), reference) >= 0.45


class TestPaperTrends:
    def test_distributed_runtime_is_lower_than_centralized(self, dblp_dataset):
        """Fig. 7 trend: more peers => lower simulated clustering time.

        At this miniature scale the communication term would dominate (the
        paper itself notes the distributed advantage shrinks with dataset
        size), so the comparison uses a fast-network cost model to expose the
        parallel-computation gain; the full-scale behaviour is covered by the
        Figure 7 benchmark.
        """
        config = ClusteringConfig(
            k=cluster_count("DBLP", "hybrid"),
            similarity=SimilarityConfig(f=0.5, gamma=0.8),
            seed=0,
            max_iterations=ITERS,
        )
        fast_network = CostModel(t_comm=1.0e-4, unit_comm=1.0e-6)
        times = {}
        for nodes in (1, 4):
            parts = partition_equally(dblp_dataset.transactions, nodes, seed=0)
            result = CXKMeans(config, cost_model=fast_network).fit(parts)
            times[nodes] = result.simulated_seconds
        assert times[4] < times[1]

    def test_accuracy_does_not_collapse_with_a_few_peers(self, dblp_dataset):
        """Tables 1-2 trend: the distributed accuracy loss stays bounded."""
        config = ClusteringConfig(
            k=cluster_count("DBLP", "content"),
            similarity=SimilarityConfig(f=0.2, gamma=0.7),
            seed=0,
            max_iterations=ITERS,
        )
        reference = dblp_dataset.labels_for("content")
        centralized = overall_f_measure(
            CXKMeans(config).fit([dblp_dataset.transactions]).partition(), reference
        )
        parts = partition_equally(dblp_dataset.transactions, 5, seed=0)
        distributed = overall_f_measure(
            CXKMeans(config).fit(parts).partition(), reference
        )
        assert centralized - distributed <= 0.35

    def test_unequal_distribution_is_not_catastrophic(self, dblp_dataset):
        """Table 2 trend: unequal partitioning loses little accuracy."""
        config = ClusteringConfig(
            k=cluster_count("DBLP", "content"),
            similarity=SimilarityConfig(f=0.2, gamma=0.7),
            seed=0,
            max_iterations=ITERS,
        )
        reference = dblp_dataset.labels_for("content")
        scores = {}
        for scheme in (PartitioningScheme.EQUAL, PartitioningScheme.UNEQUAL):
            parts = partition(dblp_dataset.transactions, 4, scheme, seed=0)
            scores[scheme] = overall_f_measure(
                CXKMeans(config).fit(parts).partition(), reference
            )
        assert scores[PartitioningScheme.EQUAL] - scores[PartitioningScheme.UNEQUAL] <= 0.3

    def test_cxk_traffic_grows_slower_than_pk_traffic(self, dblp_dataset):
        """Fig. 8 trend: the non-collaborative baseline exchanges more data."""
        config = ClusteringConfig(
            k=cluster_count("DBLP", "hybrid"),
            similarity=SimilarityConfig(f=0.5, gamma=0.8),
            seed=0,
            max_iterations=3,
        )
        parts = partition_equally(dblp_dataset.transactions, 5, seed=0)
        cxk = CXKMeans(config).fit(parts)
        pk = PKMeans(config).fit(parts)
        cxk_rate = cxk.network["transferred_transactions"] / cxk.network["rounds"]
        pk_rate = pk.network["transferred_transactions"] / pk.network["rounds"]
        assert pk_rate > cxk_rate


class TestExecutionEngines:
    def test_cost_model_scales_simulated_time(self, dblp_dataset):
        config = ClusteringConfig(
            k=4,
            similarity=SimilarityConfig(f=0.5, gamma=0.8),
            seed=0,
            max_iterations=2,
        )
        parts = partition_equally(dblp_dataset.transactions[:40], 4, seed=0)
        slow_network = CXKMeans(config, cost_model=CostModel(t_comm=0.2)).fit(parts)
        fast_network = CXKMeans(config, cost_model=CostModel(t_comm=0.0, unit_comm=0.0)).fit(parts)
        assert slow_network.simulated_seconds > fast_network.simulated_seconds
