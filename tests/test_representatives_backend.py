"""Parity suite for the batch representative-scoring backend entry points.

The CXK-means summarisation machinery (``rank_items`` /
``generate_tree_tuple`` / ``compute_local_representative`` /
``compute_global_representative``) runs on the pluggable similarity
backend's ``rank_items_batch`` and ``score_candidates`` since the
representative-scoring extension.  Like the ``assign_all`` suite in
``test_similarity_backend.py``, these tests assert *bit-exact* (``==``)
equality between the ``python`` reference loops and the vectorized
``numpy`` engine -- blended ranks, tie-broken orderings, candidate-chain
scores, whole refinement trajectories and the final representatives --
across hand-built pools, hypothesis-generated random clusters and the
synthetic generator corpora.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.representatives import (
    RankedItem,
    compute_global_representative,
    compute_local_representative,
    generate_tree_tuple,
    rank_items,
    reference_item_ranks,
    refinement_candidates,
)
from repro.datasets.registry import get_dataset
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.text.vector import SparseVector
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath

numpy = pytest.importorskip("numpy")


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def item(path: str, answer: str, vector=None):
    return make_synthetic_item(XMLPath.parse(path), answer, vector=vector)


def engines(f: float = 0.5, gamma: float = 0.8):
    """One python and one numpy engine sharing nothing but the config."""
    config = SimilarityConfig(f=f, gamma=gamma)
    return (
        SimilarityEngine(config, cache=TagPathSimilarityCache(), backend="python"),
        SimilarityEngine(config, cache=TagPathSimilarityCache(), backend="numpy"),
    )


#: Small alphabet so random items overlap structurally and textually.
_TAGS = ["a", "b", "c"]
_TERMS = [1, 2, 3, 4]


@st.composite
def items_strategy(draw):
    """One random item: random path, vector or empty TCU, shared answers."""
    depth = draw(st.integers(min_value=1, max_value=3))
    steps = [draw(st.sampled_from(_TAGS)) for _ in range(depth)] + ["S"]
    if draw(st.booleans()):
        weights = {
            term: draw(st.floats(min_value=0.25, max_value=2.0))
            for term in draw(st.sets(st.sampled_from(_TERMS), min_size=1, max_size=3))
        }
        vector = SparseVector(weights)
    else:
        vector = None  # empty TCU: content falls back to answer equality
    answer = draw(st.sampled_from(["alpha", "beta", "gamma delta", "42"]))
    return make_synthetic_item(XMLPath(tuple(steps)), answer, vector=vector)


@st.composite
def transactions_strategy(draw, min_items: int = 0, max_items: int = 5):
    count = draw(st.integers(min_value=min_items, max_value=max_items))
    items = [draw(items_strategy()) for _ in range(count)]
    return make_transaction(f"tr{draw(st.integers(0, 10_000))}", items)


_CONFIGS = st.tuples(
    st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    st.sampled_from([0.0, 0.5, 0.8, 1.0]),
)


# --------------------------------------------------------------------------- #
# Ranking parity
# --------------------------------------------------------------------------- #
class TestRankParity:
    @settings(max_examples=40, deadline=None)
    @given(pool=st.lists(items_strategy(), max_size=12), config=_CONFIGS)
    def test_rank_items_batch_is_bit_exact(self, pool, config):
        f, gamma = config
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        assert numpy_engine.rank_items_batch(pool) == python_engine.rank_items_batch(
            pool
        )

    @settings(max_examples=25, deadline=None)
    @given(pool=st.lists(items_strategy(), max_size=10), config=_CONFIGS)
    def test_rank_items_ordering_and_tie_breaks_coincide(self, pool, config):
        """Full RankedItem lists (rank, sort order, tie-breaks) coincide."""
        f, gamma = config
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        assert rank_items(pool, numpy_engine) == rank_items(pool, python_engine)

    @settings(max_examples=15, deadline=None)
    @given(
        pool=st.lists(items_strategy(), min_size=1, max_size=8),
        weight_values=st.lists(
            st.floats(min_value=0.5, max_value=20.0), min_size=8, max_size=8
        ),
        config=_CONFIGS,
    )
    def test_weighted_ranks_coincide(self, pool, weight_values, config):
        """The global-representative weighting path is bit-exact as well."""
        f, gamma = config
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        weights = dict(zip(pool, weight_values))
        assert rank_items(pool, numpy_engine, weights=weights) == rank_items(
            pool, python_engine, weights=weights
        )

    def test_python_backend_delegates_to_the_reference_loops(self):
        python_engine, _ = engines()
        pool = [item("r.a.S", "x", SparseVector({1: 1.0})), item("r.b.S", "y")]
        assert python_engine.rank_items_batch(pool) == reference_item_ranks(
            pool, python_engine
        )

    def test_empty_pool(self):
        python_engine, numpy_engine = engines()
        assert python_engine.rank_items_batch([]) == []
        assert numpy_engine.rank_items_batch([]) == []


# --------------------------------------------------------------------------- #
# Candidate scoring parity
# --------------------------------------------------------------------------- #
class TestScoreCandidatesParity:
    @settings(max_examples=30, deadline=None)
    @given(
        cluster=st.lists(transactions_strategy(), max_size=5),
        candidates=st.lists(transactions_strategy(), max_size=4),
        config=_CONFIGS,
    )
    def test_score_candidates_is_bit_exact(self, cluster, candidates, config):
        f, gamma = config
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        python_scores = python_engine.score_candidates(cluster, candidates)
        numpy_scores = numpy_engine.score_candidates(cluster, candidates)
        assert numpy_scores == python_scores

    def test_empty_candidate_list(self):
        python_engine, numpy_engine = engines()
        cluster = [make_transaction("t", [item("r.a.S", "x")])]
        assert python_engine.score_candidates(cluster, []) == []
        assert numpy_engine.score_candidates(cluster, []) == []

    def test_empty_cluster_scores_zero(self):
        python_engine, numpy_engine = engines()
        candidates = [make_transaction("c", [item("r.a.S", "x")])]
        assert numpy_engine.score_candidates([], candidates) == [0.0]
        # the reference generator-sum starts from int 0; values still compare
        assert python_engine.score_candidates([], candidates) == [0.0]


# --------------------------------------------------------------------------- #
# Refinement-trajectory and representative parity
# --------------------------------------------------------------------------- #
class TestRefinementParity:
    @settings(max_examples=25, deadline=None)
    @given(
        cluster=st.lists(
            transactions_strategy(min_items=1), min_size=1, max_size=5
        ),
        config=_CONFIGS,
    )
    def test_refinement_trajectories_are_identical(self, cluster, config):
        """Chain, per-step scores and final representative all coincide."""
        f, gamma = config
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        pool = [entry for transaction in cluster for entry in transaction.items]
        ranked_python = rank_items(pool, python_engine)
        ranked_numpy = rank_items(pool, numpy_engine)
        assert ranked_numpy == ranked_python

        max_length = max(len(transaction) for transaction in cluster)
        chain = refinement_candidates(ranked_python, max_length)
        candidates = [make_transaction("rep", items) for items in chain]
        assert numpy_engine.score_candidates(
            cluster, candidates
        ) == python_engine.score_candidates(cluster, candidates)

        rep_python = generate_tree_tuple(ranked_python, cluster, python_engine)
        rep_numpy = generate_tree_tuple(ranked_numpy, cluster, numpy_engine)
        assert rep_numpy.items == rep_python.items

    @settings(max_examples=20, deadline=None)
    @given(
        cluster=st.lists(transactions_strategy(), max_size=5),
        config=_CONFIGS,
    )
    def test_local_representative_parity(self, cluster, config):
        f, gamma = config
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        rep_python = compute_local_representative(cluster, python_engine)
        rep_numpy = compute_local_representative(cluster, numpy_engine)
        assert rep_numpy.items == rep_python.items

    @settings(max_examples=20, deadline=None)
    @given(
        locals_=st.lists(
            st.tuples(
                transactions_strategy(),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=4,
        ),
        config=_CONFIGS,
    )
    def test_global_representative_parity(self, locals_, config):
        f, gamma = config
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        rep_python = compute_global_representative(locals_, python_engine)
        rep_numpy = compute_global_representative(locals_, numpy_engine)
        assert rep_numpy.items == rep_python.items


# --------------------------------------------------------------------------- #
# Corpus-level parity (generator corpora) and seeded refinement runs
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dblp_small():
    return get_dataset("DBLP", scale=0.2, seed=0)


class TestCorpusRepresentativeParity:
    @pytest.mark.parametrize("f,gamma", [(0.0, 0.5), (0.5, 0.8), (1.0, 0.9)])
    def test_cluster_representatives_on_generator_corpus(self, dblp_small, f, gamma):
        python_engine, numpy_engine = engines(f=f, gamma=gamma)
        transactions = dblp_small.transactions
        numpy_engine.backend.compile_corpus(transactions)
        for start in (0, 10, 20):
            cluster = transactions[start : start + 10]
            rep_python = compute_local_representative(cluster, python_engine)
            rep_numpy = compute_local_representative(cluster, numpy_engine)
            assert rep_numpy.items == rep_python.items

    def test_global_merge_on_generator_corpus(self, dblp_small):
        python_engine, numpy_engine = engines(f=0.5, gamma=0.8)
        transactions = dblp_small.transactions
        weighted = []
        for peer in range(3):
            share = transactions[peer::3]
            weighted.append(
                (compute_local_representative(share, python_engine), len(share))
            )
        rep_python = compute_global_representative(weighted, python_engine)
        rep_numpy = compute_global_representative(weighted, numpy_engine)
        assert rep_numpy.items == rep_python.items

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_refinement_trajectories_across_random_clusters(
        self, dblp_small, seed
    ):
        """Different random partitions of the corpus (per seed) refine to
        bit-identical representatives under both backends."""
        import random

        rng = random.Random(seed)
        transactions = list(dblp_small.transactions)
        rng.shuffle(transactions)
        python_engine, numpy_engine = engines(f=0.4, gamma=0.8)
        cluster = transactions[:12]
        pool = [entry for transaction in cluster for entry in transaction.items]
        assert numpy_engine.rank_items_batch(pool) == python_engine.rank_items_batch(
            pool
        )
        rep_python = compute_local_representative(cluster, python_engine)
        rep_numpy = compute_local_representative(cluster, numpy_engine)
        assert rep_numpy.items == rep_python.items


# --------------------------------------------------------------------------- #
# Behaviour of the new entry points
# --------------------------------------------------------------------------- #
class TestEntryPointBehaviour:
    def test_generate_tree_tuple_scores_in_progressive_blocks(self):
        """The refinement scores its chain through engine.score_candidates in
        blocks, never one candidate at a time per call."""
        engine, _ = engines(f=1.0, gamma=0.5)
        pool = [item(f"r.p{i}.S", f"v{i}") for i in range(6)]
        cluster = [make_transaction("t", pool)]
        calls = []
        original = engine.score_candidates

        def recording(cluster_arg, candidates):
            calls.append(len(candidates))
            return original(cluster_arg, candidates)

        engine.score_candidates = recording  # type: ignore[method-assign]
        generate_tree_tuple(rank_items(pool, engine), cluster, engine)
        assert calls  # went through the batched entry point
        assert sum(calls) >= 1 and all(size >= 1 for size in calls)

    def test_scripted_tie_keeps_first_best_on_both_backends(self):
        """First-best-wins is backend-independent: scripted equal scores make
        both backends return the first candidate of the chain."""
        for backend in ("python", "numpy"):
            engine = SimilarityEngine(
                SimilarityConfig(f=1.0, gamma=0.9), backend=backend
            )
            x = item("r.a.S", "alpha")
            y = item("r.b.S", "beta")
            members = [
                make_transaction("m1", [x, x]),
                make_transaction("m2", [y, y]),
            ]
            ranked = [RankedItem(item=x, rank=2.0), RankedItem(item=y, rank=1.0)]
            rep = generate_tree_tuple(ranked, members, engine)
            assert [(str(i.path), i.answer) for i in rep.items] == [
                ("r.a.S", "alpha")
            ]
