"""Tests for clustering configuration, seeding and data partitioning."""

import random
from collections import Counter

import pytest

from repro.core.config import ClusteringConfig
from repro.core.partition import (
    PartitioningScheme,
    partition,
    partition_equally,
    partition_unequally,
)
from repro.core.seeding import partition_cluster_ids, select_seed_transactions
from repro.similarity.item import SimilarityConfig
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath


def make_transactions(count: int, docs: int):
    transactions = []
    for index in range(count):
        doc = f"doc{index % docs}"
        item = make_synthetic_item(XMLPath.parse("r.t.S"), f"value {index}")
        transactions.append(
            make_transaction(f"tr{index}", [item], doc_id=doc, tuple_id=f"tr{index}")
        )
    return transactions


class TestClusteringConfig:
    def test_valid_configuration(self):
        config = ClusteringConfig(k=4, similarity=SimilarityConfig(f=0.5, gamma=0.8))
        assert config.f == 0.5 and config.gamma == 0.8

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ClusteringConfig(k=0)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            ClusteringConfig(k=2, max_iterations=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("network", "tcp"),
            ("network_timeout", 0.0),
            ("chunk_size", 0),
            ("retain_threshold", -0.1),
            ("retain_threshold", 1.5),
            ("drift_threshold", 0.0),
            ("drift_threshold", 1.5),
        ],
    )
    def test_out_of_range_fields_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ClusteringConfig(k=2, **{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("retain_threshold", 0.0), ("retain_threshold", 1.0), ("drift_threshold", 1.0)],
    )
    def test_closed_range_bounds_are_accepted(self, field, value):
        assert getattr(ClusteringConfig(k=2, **{field: value}), field) == value

    @pytest.mark.parametrize(
        "chunk_size,capacity", [(None, 8), (4, 8), (5, 10), (64, 128)]
    )
    def test_retain_capacity_is_two_chunks_and_at_least_eight(self, chunk_size, capacity):
        config = ClusteringConfig(k=2, chunk_size=chunk_size)
        assert config.effective_retain_capacity == capacity

    def test_with_helpers_return_modified_copies(self):
        config = ClusteringConfig(k=2)
        real = config.with_network("real", 30.0)
        assert (real.network, real.network_timeout) == ("real", 30.0)
        assert config.with_network("real").network_timeout == config.network_timeout
        streaming = config.with_streaming(chunk_size=16, drift_threshold=0.25)
        assert (streaming.chunk_size, streaming.drift_threshold) == (16, 0.25)
        assert streaming.retain_threshold == config.retain_threshold
        # original untouched
        assert config.network == "sim" and config.chunk_size is None


class TestSeeding:
    def test_seeds_come_from_distinct_documents_when_possible(self):
        transactions = make_transactions(20, docs=10)
        seeds = select_seed_transactions(transactions, 5, random.Random(0))
        docs = [seed.doc_id for seed in seeds]
        assert len(set(docs)) == 5

    def test_more_seeds_than_documents_falls_back_to_any_transaction(self):
        transactions = make_transactions(10, docs=3)
        seeds = select_seed_transactions(transactions, 6, random.Random(0))
        assert len(seeds) == 6
        assert len({seed.transaction_id for seed in seeds}) == 6

    def test_zero_seeds(self):
        assert select_seed_transactions(make_transactions(3, 3), 0, random.Random(0)) == []

    def test_too_many_seeds_raises(self):
        with pytest.raises(ValueError):
            select_seed_transactions(make_transactions(2, 2), 3, random.Random(0))

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            select_seed_transactions(make_transactions(2, 2), -1, random.Random(0))

    def test_selection_is_deterministic_given_seed(self):
        transactions = make_transactions(20, docs=10)
        first = select_seed_transactions(transactions, 4, random.Random(42))
        second = select_seed_transactions(transactions, 4, random.Random(42))
        assert [t.transaction_id for t in first] == [t.transaction_id for t in second]


class TestClusterIdPartitioning:
    def test_round_robin_assignment(self):
        assert partition_cluster_ids(5, 2) == [[0, 2, 4], [1, 3]]

    def test_more_nodes_than_clusters(self):
        subsets = partition_cluster_ids(2, 4)
        assert subsets == [[0], [1], [], []]

    def test_every_cluster_assigned_exactly_once(self):
        subsets = partition_cluster_ids(16, 5)
        flattened = [c for subset in subsets for c in subset]
        assert sorted(flattened) == list(range(16))

    def test_balanced_sizes(self):
        sizes = [len(s) for s in partition_cluster_ids(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_cluster_ids(0, 3)
        with pytest.raises(ValueError):
            partition_cluster_ids(3, 0)


class TestDataPartitioning:
    def test_equal_partitioning_balances_sizes(self):
        transactions = make_transactions(101, docs=20)
        chunks = partition_equally(transactions, 4, seed=1)
        sizes = [len(chunk) for chunk in chunks]
        assert sum(sizes) == 101
        assert max(sizes) - min(sizes) <= 1

    def test_equal_partitioning_covers_every_transaction_once(self):
        transactions = make_transactions(30, docs=10)
        chunks = partition_equally(transactions, 3, seed=2)
        ids = [t.transaction_id for chunk in chunks for t in chunk]
        assert Counter(ids) == Counter(t.transaction_id for t in transactions)

    def test_unequal_partitioning_heavy_peers_hold_about_twice_as_much(self):
        transactions = make_transactions(120, docs=30)
        chunks = partition_unequally(transactions, 4, seed=0)
        sizes = [len(chunk) for chunk in chunks]
        assert sum(sizes) == 120
        heavy = sizes[:2]
        light = sizes[2:]
        assert min(heavy) > max(light)
        assert sum(heavy) == pytest.approx(2 * sum(light), rel=0.15)

    def test_unequal_partitioning_single_node(self):
        transactions = make_transactions(7, docs=3)
        chunks = partition_unequally(transactions, 1, seed=0)
        assert len(chunks) == 1 and len(chunks[0]) == 7

    def test_unequal_partitioning_odd_node_count(self):
        transactions = make_transactions(90, docs=30)
        chunks = partition_unequally(transactions, 5, seed=0)
        assert sum(len(chunk) for chunk in chunks) == 90
        assert len(chunks) == 5

    def test_partition_dispatcher(self):
        transactions = make_transactions(20, docs=5)
        equal = partition(transactions, 2, PartitioningScheme.EQUAL, seed=3)
        unequal = partition(transactions, 2, PartitioningScheme.UNEQUAL, seed=3)
        assert len(equal) == len(unequal) == 2
        assert abs(len(equal[0]) - len(equal[1])) <= 1
        assert len(unequal[0]) > len(unequal[1])

    def test_partition_dispatcher_rejects_a_scheme_name(self):
        transactions = make_transactions(20, docs=5)
        with pytest.raises(ValueError, match="unknown partitioning scheme"):
            partition(transactions, 2, "equal", seed=3)

    def test_partitioning_is_deterministic(self):
        transactions = make_transactions(40, docs=10)
        first = partition_equally(transactions, 3, seed=5)
        second = partition_equally(transactions, 3, seed=5)
        assert [[t.transaction_id for t in chunk] for chunk in first] == [
            [t.transaction_id for t in chunk] for chunk in second
        ]

    def test_invalid_node_counts(self):
        transactions = make_transactions(5, docs=5)
        with pytest.raises(ValueError):
            partition_equally(transactions, 0)
        with pytest.raises(ValueError):
            partition_unequally(transactions, 0)
