"""Tests for per-cluster representative refinement.

``repro/network/mpengine.py``: a ``RefinementShard`` carries one cluster's
``compute_{local,global}_representative`` call and ``refine_clusters``
refines a list of them on the caller's engine, keyed by cluster index.
These tests pin that the refined representatives are *identical* to calling
the representative functions directly (including a hypothesis property
suite), that empty clusters yield empty representatives, and that repeat
runs agree.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.representatives import (
    compute_global_representative,
    compute_local_representative,
)
from repro.core.seeding import select_seed_transactions
from repro.datasets.registry import get_dataset
from repro.network.mpengine import RefinementShard, refine_clusters
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.text.vector import SparseVector
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath


@pytest.fixture(scope="module")
def dblp_small():
    return get_dataset("DBLP", scale=0.2, seed=0)


SIMILARITY = SimilarityConfig(f=0.5, gamma=0.8)


def make_engine() -> SimilarityEngine:
    return SimilarityEngine(SIMILARITY, cache=TagPathSimilarityCache())


def make_clusters(dataset, k: int, seed: int = 0):
    """Real clusters: assign the corpus to ``k`` seed representatives."""
    engine = make_engine()
    transactions = dataset.transactions
    representatives = select_seed_transactions(transactions, k, random.Random(seed))
    clusters = [[] for _ in range(k)]
    for transaction, (index, similarity) in zip(
        transactions, engine.assign_all(transactions, representatives)
    ):
        if similarity > 0.0:
            clusters[index].append(transaction)
    return clusters


def local_shards(clusters):
    return [
        RefinementShard(
            cluster_index=index,
            members=list(members),
            representative_id=f"rep:{index}",
        )
        for index, members in enumerate(clusters)
    ]


def rep_key(transaction):
    return sorted((str(item.path), item.answer) for item in transaction.items)


# --------------------------------------------------------------------------- #
# Hypothesis strategies (small alphabet so random items overlap)
# --------------------------------------------------------------------------- #
_TAGS = ["a", "b", "c"]
_TERMS = [1, 2, 3, 4]


@st.composite
def items_strategy(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    steps = [draw(st.sampled_from(_TAGS)) for _ in range(depth)] + ["S"]
    if draw(st.booleans()):
        weights = {
            term: draw(st.floats(min_value=0.25, max_value=2.0))
            for term in draw(st.sets(st.sampled_from(_TERMS), min_size=1, max_size=3))
        }
        vector = SparseVector(weights)
    else:
        vector = None
    answer = draw(st.sampled_from(["alpha", "beta", "gamma delta", "42"]))
    return make_synthetic_item(XMLPath(tuple(steps)), answer, vector=vector)


@st.composite
def transactions_strategy(draw, min_items: int = 1, max_items: int = 4):
    count = draw(st.integers(min_value=min_items, max_value=max_items))
    items = [draw(items_strategy()) for _ in range(count)]
    return make_transaction(f"tr{draw(st.integers(0, 10_000))}", items)


@st.composite
def clusters_strategy(draw, min_clusters: int = 2, max_clusters: int = 4):
    count = draw(st.integers(min_value=min_clusters, max_value=max_clusters))
    return [
        draw(
            st.lists(transactions_strategy(), min_size=1, max_size=3)
        )
        for _ in range(count)
    ]


# --------------------------------------------------------------------------- #
# Shard model basics
# --------------------------------------------------------------------------- #
class TestShardModel:
    def test_kind_is_derived_from_weights(self):
        local = RefinementShard(
            cluster_index=0, members=[], representative_id="rep"
        )
        assert local.kind == "local"
        global_shard = RefinementShard(
            cluster_index=0, members=[], representative_id="rep", weights=[3]
        )
        assert global_shard.kind == "global"


# --------------------------------------------------------------------------- #
# Parity: refine_clusters vs. the representative functions called directly
# --------------------------------------------------------------------------- #
class TestRefinementParity:
    def test_local_refinement_matches_direct_computation(self, dblp_small):
        clusters = make_clusters(dblp_small, 4)
        engine = make_engine()
        expected = {
            index: compute_local_representative(
                members, engine, representative_id=f"rep:{index}"
            )
            for index, members in enumerate(clusters)
        }
        refined = refine_clusters(local_shards(clusters), engine)
        assert set(refined) == set(expected)
        for index in expected:
            assert rep_key(refined[index]) == rep_key(expected[index])

    def test_global_refinement_matches_direct_computation(self, dblp_small):
        clusters = [cluster for cluster in make_clusters(dblp_small, 4) if cluster]
        engine = make_engine()
        locals_per_cluster = [
            (
                compute_local_representative(members, engine, representative_id=f"l:{i}"),
                len(members),
            )
            for i, members in enumerate(clusters)
        ]
        # every "peer" contributes the same weighted local representatives
        shards = [
            RefinementShard(
                cluster_index=index,
                members=[representative],
                weights=[weight],
                representative_id=f"rep:global:{index}",
            )
            for index, (representative, weight) in enumerate(locals_per_cluster)
        ]
        expected = {
            index: compute_global_representative(
                [(representative, weight)],
                engine,
                representative_id=f"rep:global:{index}",
            )
            for index, (representative, weight) in enumerate(locals_per_cluster)
        }
        refined = refine_clusters(shards, engine)
        for index in expected:
            assert rep_key(refined[index]) == rep_key(expected[index])

    def test_repeat_runs_are_deterministic(self, dblp_small):
        clusters = make_clusters(dblp_small, 4)
        engine = make_engine()
        first = refine_clusters(local_shards(clusters), engine)
        second = refine_clusters(local_shards(clusters), engine)
        assert {i: rep_key(r) for i, r in first.items()} == {
            i: rep_key(r) for i, r in second.items()
        }

    @settings(max_examples=10, deadline=None)
    @given(clusters=clusters_strategy())
    def test_property_refinement_matches_direct_computation(self, clusters):
        """Hypothesis parity: random clusters refine to exactly the
        representatives the direct calls produce."""
        engine = make_engine()
        expected = {
            index: rep_key(
                compute_local_representative(
                    members, engine, representative_id=f"rep:{index}"
                )
            )
            for index, members in enumerate(clusters)
        }
        refined = refine_clusters(local_shards(clusters), engine)
        assert {i: rep_key(r) for i, r in refined.items()} == expected


class TestFallbacks:
    def test_empty_clusters_yield_empty_representatives(self):
        refined = refine_clusters(local_shards([[], []]), make_engine())
        assert refined[0].is_empty() and refined[1].is_empty()


# --------------------------------------------------------------------------- #
# Full-fit parity across backends
# --------------------------------------------------------------------------- #
class TestFitParity:
    def test_numpy_inner_backend_parity(self, dblp_small):
        pytest.importorskip("numpy")
        partitions = [dblp_small.transactions[0::2], dblp_small.transactions[1::2]]
        results = {}
        for backend in ("python", "numpy"):
            config = ClusteringConfig(
                k=3,
                similarity=SIMILARITY,
                seed=0,
                max_iterations=3,
                backend=backend,
            )
            result = CXKMeans(config).fit(partitions)
            results[backend] = (
                result.partition(),
                [rep_key(rep) for rep in result.representatives()],
            )
        assert results["numpy"] == results["python"]
