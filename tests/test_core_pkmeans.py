"""Tests for the PK-means baseline and its comparison with CXK-means."""

from dataclasses import replace

import pytest

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.partition import partition_equally
from repro.core.pkmeans import PKMeans
from repro.evaluation.fmeasure import overall_f_measure
from repro.similarity.item import SimilarityConfig


@pytest.fixture()
def config():
    return ClusteringConfig(
        k=2,
        similarity=SimilarityConfig(f=0.3, gamma=0.4),
        seed=1,
        max_iterations=6,
    )


class TestPKMeans:
    def test_all_transactions_are_assigned(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 3, seed=1)
        result = PKMeans(config).fit(parts)
        assert sum(map(len, result.partition())) + result.trash_size() == len(mini_dataset)

    def test_accuracy_is_reasonable(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 3, seed=1)
        result = PKMeans(config).fit(parts)
        reference = mini_dataset.labels_for("content")
        assert overall_f_measure(result.partition(), reference) >= 0.55

    def test_metadata_and_network(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 3, seed=1)
        result = PKMeans(config).fit(parts)
        assert result.metadata["algorithm"] == "PK-means"
        assert result.network["messages"] > 0
        assert result.simulated_seconds is not None

    def test_empty_partition_list_raises(self, config):
        with pytest.raises(ValueError):
            PKMeans(config).fit([])

    def test_real_transport_is_refused(self, config):
        with pytest.raises(ValueError, match="CXK-means only"):
            PKMeans(config.with_network("real"))

    def test_too_few_transactions_raises(self, mini_dataset, config):
        with pytest.raises(ValueError):
            PKMeans(replace(config, k=500)).fit([mini_dataset.transactions[:4]])

    def test_deterministic_given_seed(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 2, seed=5)
        first = PKMeans(config).fit(parts)
        second = PKMeans(config).fit(parts)
        assert first.assignments(include_trash=True) == second.assignments(include_trash=True)

    def test_objective_convergence_terminates_early(self, mini_dataset):
        config = ClusteringConfig(
            k=2, similarity=SimilarityConfig(f=0.3, gamma=0.4), seed=1, max_iterations=20
        )
        parts = partition_equally(mini_dataset.transactions, 2, seed=1)
        result = PKMeans(config).fit(parts)
        assert result.iterations < 20
        assert result.converged


class TestCollaborativeVsNonCollaborative:
    def test_pk_means_transfers_more_representatives_than_cxk(self, mini_dataset, config):
        """The core claim behind Fig. 8: the all-to-all exchange of PK-means
        moves more data than CXK-means' responsibility-based exchange."""
        parts = partition_equally(mini_dataset.transactions, 4, seed=1)
        cxk = CXKMeans(config).fit(parts)
        pk = PKMeans(config).fit(parts)
        cxk_per_round = cxk.network["transferred_transactions"] / cxk.network["rounds"]
        pk_per_round = pk.network["transferred_transactions"] / pk.network["rounds"]
        assert pk_per_round > cxk_per_round

    def test_accuracies_are_comparable(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 3, seed=1)
        reference = mini_dataset.labels_for("content")
        cxk_f = overall_f_measure(CXKMeans(config).fit(parts).partition(), reference)
        pk_f = overall_f_measure(PKMeans(config).fit(parts).partition(), reference)
        assert abs(cxk_f - pk_f) <= 0.3
