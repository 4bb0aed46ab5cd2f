"""Tests for the centralized XK-means algorithm."""

from dataclasses import replace

import pytest

from repro.core.config import ClusteringConfig
from repro.core.xkmeans import XKMeans
from repro.evaluation.fmeasure import overall_f_measure
from repro.similarity.item import SimilarityConfig


@pytest.fixture()
def config():
    return ClusteringConfig(
        k=2,
        similarity=SimilarityConfig(f=0.3, gamma=0.4),
        seed=1,
        max_iterations=10,
    )


class TestXKMeans:
    def test_produces_k_clusters_plus_trash(self, mini_dataset, config):
        result = XKMeans(config).fit(mini_dataset.transactions)
        assert result.k == 2
        assert sum(map(len, result.partition())) + result.trash_size() == len(mini_dataset)

    def test_every_transaction_is_assigned_exactly_once(self, mini_dataset, config):
        result = XKMeans(config).fit(mini_dataset.transactions)
        assigned = result.assignments(include_trash=True)
        assert set(assigned) == {t.transaction_id for t in mini_dataset}

    def test_convergence_flag_and_iterations(self, mini_dataset, config):
        result = XKMeans(config).fit(mini_dataset.transactions)
        assert result.iterations <= config.max_iterations
        assert result.converged

    def test_separates_the_two_topics_reasonably(self, mini_dataset, config):
        # Like any K-means-style method the outcome is seed sensitive (the
        # paper averages over 10 runs); with a good initialisation the two
        # topics must be recovered well.
        reference = mini_dataset.labels_for("content")
        best = max(
            overall_f_measure(
                XKMeans(replace(config, seed=seed)).fit(mini_dataset.transactions).partition(),
                reference,
            )
            for seed in (0, 1, 5)
        )
        assert best >= 0.75

    def test_structure_driven_separates_the_two_schemas(self, mini_dataset):
        # With seeds drawn from both schemas, structure-driven clustering must
        # recover the article/paper split perfectly (their tag sets are
        # disjoint); seeds from a single schema send the other schema to the
        # trash cluster instead, so the best seed is evaluated.
        reference = mini_dataset.labels_for("structure")
        scores = []
        for seed in (0, 2):
            config = ClusteringConfig(
                k=2,
                similarity=SimilarityConfig(f=1.0, gamma=0.9),
                seed=seed,
                max_iterations=10,
            )
            result = XKMeans(config).fit(mini_dataset.transactions)
            scores.append(overall_f_measure(result.partition(), reference))
        assert max(scores) >= 0.95

    def test_deterministic_given_seed(self, mini_dataset, config):
        first = XKMeans(config).fit(mini_dataset.transactions)
        second = XKMeans(config).fit(mini_dataset.transactions)
        assert first.assignments(include_trash=True) == second.assignments(include_trash=True)

    def test_different_seeds_may_change_initialisation(self, mini_dataset, config):
        first = XKMeans(config).fit(mini_dataset.transactions)
        second = XKMeans(replace(config, seed=99)).fit(mini_dataset.transactions)
        # both are valid clusterings over the same transactions
        assert sum(map(len, first.partition())) + first.trash_size() == sum(map(len, second.partition())) + second.trash_size()

    def test_real_transport_is_refused(self, config):
        with pytest.raises(ValueError, match="CXK-means only"):
            XKMeans(config.with_network("real"))

    def test_too_few_transactions_raises(self, mini_dataset, config):
        with pytest.raises(ValueError):
            XKMeans(replace(config, k=1000)).fit(mini_dataset.transactions[:3])

    def test_representatives_are_nonempty_for_nonempty_clusters(self, mini_dataset, config):
        result = XKMeans(config).fit(mini_dataset.transactions)
        for cluster in result.clusters:
            if cluster.size() > 0:
                assert cluster.representative is not None
                assert len(cluster.representative) > 0

    def test_metadata_describes_the_run(self, mini_dataset, config):
        result = XKMeans(config).fit(mini_dataset.transactions)
        assert result.metadata["algorithm"] == "XK-means"
        assert result.metadata["k"] == 2
        assert result.metadata["transactions"] == len(mini_dataset)

    def test_assign_marks_zero_similarity_as_trash(self, mini_dataset, config):
        algorithm = XKMeans(config)
        transactions = mini_dataset.transactions
        # use a representative that matches nothing
        from repro.transactions.items import make_synthetic_item
        from repro.transactions.transaction import make_transaction
        from repro.xmlmodel.paths import XMLPath

        alien = make_transaction(
            "alien", [make_synthetic_item(XMLPath.parse("zzz.qqq.S"), "nothing shared")]
        )
        assignment = algorithm.assign(transactions[:4], [alien])
        assert set(assignment.values()) == {-1}
