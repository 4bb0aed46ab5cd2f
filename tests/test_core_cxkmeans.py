"""Tests for the collaborative distributed CXK-means algorithm."""

from dataclasses import replace

import pytest

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans, LocalPhaseInput, run_local_phase
from repro.core.partition import partition_equally, partition_unequally
from repro.core.xkmeans import XKMeans
from repro.evaluation.fmeasure import overall_f_measure
from repro.network.costmodel import CostModel
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine


@pytest.fixture()
def config():
    return ClusteringConfig(
        k=2,
        similarity=SimilarityConfig(f=0.3, gamma=0.4),
        seed=1,
        max_iterations=8,
    )


class TestLocalPhase:
    def test_assignment_covers_all_local_transactions(self, mini_dataset, config):
        engine = SimilarityEngine(config.similarity)
        transactions = mini_dataset.transactions[:6]
        representatives = [transactions[0], transactions[1]]
        output = run_local_phase(
            LocalPhaseInput(0, transactions, representatives), engine=engine
        )
        assert set(output.assignment) == {t.transaction_id for t in transactions}
        assert len(output.local_representatives) == 2
        assert len(output.cluster_sizes) == 2
        assert sum(output.cluster_sizes) + list(output.assignment.values()).count(-1) == len(
            transactions
        )
        assert output.compute_seconds >= 0.0

    def test_empty_cluster_gets_empty_representative(self, mini_dataset, config):
        engine = SimilarityEngine(config.similarity)
        transactions = mini_dataset.transactions[:4]
        # two identical representatives: the second cluster will stay empty
        representatives = [transactions[0], transactions[0]]
        output = run_local_phase(
            LocalPhaseInput(0, transactions, representatives), engine=engine
        )
        assert output.cluster_sizes[1] == 0
        assert output.local_representatives[1].is_empty()

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_phase_assigns_once(self, mini_dataset, config, backend):
        """The global representatives are fixed during a phase, so one
        ``assign_all`` pass is the whole relocation loop."""
        engine = SimilarityEngine(config.similarity, backend=backend)
        calls = []
        assign_all = engine.assign_all

        def counting(transactions, representatives):
            calls.append(len(transactions))
            return assign_all(transactions, representatives)

        engine.assign_all = counting  # type: ignore[method-assign]
        transactions = mini_dataset.transactions[:6]
        output = run_local_phase(
            LocalPhaseInput(0, transactions, transactions[:2]), engine=engine
        )
        assert calls == [len(transactions)]
        assert output.assignment == {
            transaction.transaction_id: (-1 if similarity <= 0.0 else index)
            for transaction, (index, similarity) in zip(
                transactions, assign_all(transactions, transactions[:2])
            )
        }


class TestCXKMeans:
    def test_all_transactions_are_clustered_or_trashed(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 3, seed=1)
        result = CXKMeans(config).fit(parts)
        assert sum(map(len, result.partition())) + result.trash_size() == len(mini_dataset)
        assigned = result.assignments(include_trash=True)
        assert set(assigned) == {t.transaction_id for t in mini_dataset}

    def test_single_partition_behaves_like_centralized(self, mini_dataset, config):
        result = CXKMeans(config).fit([mini_dataset.transactions])
        reference = mini_dataset.labels_for("content")
        distributed_f = overall_f_measure(result.partition(), reference)
        centralized_f = overall_f_measure(
            XKMeans(config).fit(mini_dataset.transactions).partition(), reference
        )
        # both runs solve the same problem; allow a small tolerance because
        # seeding differs slightly between the two code paths
        assert abs(distributed_f - centralized_f) <= 0.25

    def test_accuracy_remains_reasonable_with_three_peers(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 3, seed=1)
        result = CXKMeans(config).fit(parts)
        reference = mini_dataset.labels_for("content")
        assert overall_f_measure(result.partition(), reference) >= 0.6

    def test_network_statistics_are_recorded(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 3, seed=1)
        result = CXKMeans(config).fit(parts)
        assert result.network["messages"] > 0
        assert result.network["transferred_transactions"] > 0
        assert result.network["peers"] == 3.0
        assert result.simulated_seconds is not None and result.simulated_seconds > 0

    def test_centralized_run_has_no_representative_traffic(self, mini_dataset, config):
        result = CXKMeans(config).fit([mini_dataset.transactions])
        # a single peer never sends representatives over the network
        assert result.network["transferred_transactions"] == 0.0

    def test_metadata_records_partition_sizes(self, mini_dataset, config):
        parts = partition_unequally(mini_dataset.transactions, 2, seed=1)
        result = CXKMeans(config).fit(parts)
        assert result.metadata["algorithm"] == "CXK-means"
        assert result.metadata["peers"] == 2
        assert result.metadata["partition_sizes"] == [len(parts[0]), len(parts[1])]

    def test_deterministic_given_seed(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 2, seed=4)
        first = CXKMeans(config).fit(parts)
        second = CXKMeans(config).fit(parts)
        assert first.assignments(include_trash=True) == second.assignments(include_trash=True)
        assert first.network["messages"] == second.network["messages"]

    def test_more_peers_increase_traffic(self, mini_dataset, config):
        small = CXKMeans(config).fit(partition_equally(mini_dataset.transactions, 2, seed=1))
        large = CXKMeans(config).fit(partition_equally(mini_dataset.transactions, 4, seed=1))
        assert (
            large.network["transferred_transactions"]
            >= small.network["transferred_transactions"]
        )

    def test_empty_partition_list_raises(self, config):
        with pytest.raises(ValueError):
            CXKMeans(config).fit([])

    def test_too_few_transactions_raises(self, mini_dataset, config):
        with pytest.raises(ValueError):
            CXKMeans(replace(config, k=100)).fit([mini_dataset.transactions[:5]])

    def test_peer_with_empty_share_is_tolerated(self, mini_dataset, config):
        parts = [mini_dataset.transactions[:10], []]
        result = CXKMeans(config).fit(parts)
        assert sum(map(len, result.partition())) + result.trash_size() == 10

    def test_cost_model_influences_simulated_time(self, mini_dataset, config):
        parts = partition_equally(mini_dataset.transactions, 3, seed=1)
        cheap = CXKMeans(config, cost_model=CostModel(t_comm=0.0, unit_comm=0.0)).fit(parts)
        expensive = CXKMeans(config, cost_model=CostModel(t_comm=0.5, unit_comm=0.0)).fit(parts)
        assert expensive.simulated_seconds > cheap.simulated_seconds

    def test_max_iterations_bound_is_respected(self, mini_dataset):
        config = ClusteringConfig(
            k=2, similarity=SimilarityConfig(f=0.3, gamma=0.4), seed=1, max_iterations=1
        )
        parts = partition_equally(mini_dataset.transactions, 2, seed=1)
        result = CXKMeans(config).fit(parts)
        assert result.iterations == 1
