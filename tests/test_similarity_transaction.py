"""Tests for gamma-shared items and the transaction similarity (Eq. 4)."""

import pytest
from oracles import directed_gamma_match

from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import (
    SimilarityEngine,
    gamma_shared_items,
    transaction_similarity,
)
from repro.text.vector import SparseVector
from repro.transactions.builder import build_dataset
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath


def item(path: str, answer: str, vector=None):
    return make_synthetic_item(XMLPath.parse(path), answer, vector=vector)


def simple_transactions():
    """Two transactions sharing one identical item and one near-match."""
    shared = item("r.a.S", "shared", SparseVector({1: 1.0}))
    near_1 = item("r.b.S", "near one", SparseVector({2: 1.0, 3: 1.0}))
    near_2 = item("r.b.S", "near two", SparseVector({2: 1.0, 4: 1.0}))
    only_1 = item("r.c.S", "solo", SparseVector({9: 1.0}))
    only_2 = item("r.d.S", "other", SparseVector({8: 1.0}))
    tr1 = make_transaction("tr1", [shared, near_1, only_1])
    tr2 = make_transaction("tr2", [shared, near_2, only_2])
    return tr1, tr2


class TestGammaSharedItems:
    def test_identical_transactions_share_everything(self):
        tr1, _ = simple_transactions()
        config = SimilarityConfig(f=0.5, gamma=0.9)
        assert gamma_shared_items(tr1, tr1, config) == set(tr1.items)
        assert transaction_similarity(tr1, tr1, config) == pytest.approx(1.0)

    def test_shared_and_near_items_are_matched(self):
        tr1, tr2 = simple_transactions()
        config = SimilarityConfig(f=0.5, gamma=0.7)
        shared = gamma_shared_items(tr1, tr2, config)
        answers = {i.answer for i in shared}
        # the identical item and both near items match; the solo items do not
        assert "shared" in answers
        assert "near one" in answers and "near two" in answers
        assert "solo" not in answers and "other" not in answers

    def test_high_gamma_only_keeps_exact_matches(self):
        tr1, tr2 = simple_transactions()
        config = SimilarityConfig(f=0.5, gamma=0.99)
        shared = gamma_shared_items(tr1, tr2, config)
        assert {i.answer for i in shared} == {"shared"}

    def test_empty_transaction_shares_nothing(self):
        tr1, _ = simple_transactions()
        empty = make_transaction("empty", [])
        config = SimilarityConfig(f=0.5, gamma=0.5)
        assert gamma_shared_items(tr1, empty, config) == set()
        assert transaction_similarity(tr1, empty, config) == 0.0

    def test_engine_matches_stateless_wrappers(self):
        tr1, tr2 = simple_transactions()
        config = SimilarityConfig(f=0.5, gamma=0.7)
        engine = SimilarityEngine(config)
        assert engine.gamma_shared_items(tr1, tr2) == gamma_shared_items(tr1, tr2, config)
        assert engine.transaction_similarity(tr1, tr2) == pytest.approx(
            transaction_similarity(tr1, tr2, config)
        )

    def test_matrix_version_equals_directed_union(self):
        tr1, tr2 = simple_transactions()
        engine = SimilarityEngine(SimilarityConfig(f=0.4, gamma=0.6))
        combined = engine.gamma_shared_items(tr1, tr2)
        directed = directed_gamma_match(engine, tr1, tr2) | directed_gamma_match(
            engine, tr2, tr1
        )
        assert combined == directed


class TestTransactionSimilarity:
    def test_value_is_ratio_of_shared_to_union(self):
        tr1, tr2 = simple_transactions()
        config = SimilarityConfig(f=0.5, gamma=0.7)
        shared = gamma_shared_items(tr1, tr2, config)
        union = len(set(tr1.items) | set(tr2.items))
        assert transaction_similarity(tr1, tr2, config) == pytest.approx(
            len(shared) / union
        )

    def test_worked_example_is_three_shared_over_five(self):
        # gamma-shared: the identical item and both near items; the union
        # counts the shared item once: shared, near one, near two, solo, other
        tr1, tr2 = simple_transactions()
        assert transaction_similarity(
            tr1, tr2, SimilarityConfig(f=0.5, gamma=0.7)
        ) == pytest.approx(3 / 5)

    def test_similarity_is_symmetric(self):
        tr1, tr2 = simple_transactions()
        config = SimilarityConfig(f=0.3, gamma=0.6)
        assert transaction_similarity(tr1, tr2, config) == pytest.approx(
            transaction_similarity(tr2, tr1, config)
        )

    def test_similarity_is_bounded(self):
        tr1, tr2 = simple_transactions()
        for gamma in (0.5, 0.7, 0.9):
            value = transaction_similarity(tr1, tr2, SimilarityConfig(f=0.5, gamma=gamma))
            assert 0.0 <= value <= 1.0

    def test_higher_gamma_never_increases_similarity(self):
        tr1, tr2 = simple_transactions()
        values = [
            transaction_similarity(tr1, tr2, SimilarityConfig(f=0.5, gamma=g))
            for g in (0.5, 0.7, 0.9, 0.99)
        ]
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))

    def test_disjoint_transactions_have_zero_similarity(self):
        a = make_transaction("a", [item("x.p.S", "one", SparseVector({1: 1.0}))])
        b = make_transaction("b", [item("y.q.S", "two", SparseVector({2: 1.0}))])
        assert transaction_similarity(a, b, SimilarityConfig(f=0.5, gamma=0.8)) == 0.0

    def test_paper_example_transactions(self, paper_tree):
        # tr1 and tr2 differ only in the author item; with a permissive gamma
        # they are highly similar, and both are less similar to tr3
        dataset = build_dataset("paper", [paper_tree])
        tr1, tr2, tr3 = dataset.transactions
        config = SimilarityConfig(f=0.5, gamma=0.8)
        sim_12 = transaction_similarity(tr1, tr2, config)
        sim_13 = transaction_similarity(tr1, tr3, config)
        assert sim_12 > sim_13
        assert sim_12 > 0.5


class TestEngineHelpers:
    def test_nearest_representative_picks_most_similar(self):
        tr1, tr2 = simple_transactions()
        other = make_transaction("far", [item("z.z.S", "nothing", SparseVector({42: 1.0}))])
        engine = SimilarityEngine(SimilarityConfig(f=0.5, gamma=0.7))
        index, similarity = engine.nearest_representative(tr1, [other, tr2])
        assert index == 1
        assert similarity > 0.0

    def test_nearest_representative_with_no_candidates(self):
        tr1, _ = simple_transactions()
        engine = SimilarityEngine(SimilarityConfig())
        assert engine.nearest_representative(tr1, []) == (-1, 0.0)

    def test_shared_cache_is_reused(self):
        cache = TagPathSimilarityCache()
        engine = SimilarityEngine(SimilarityConfig(f=1.0, gamma=0.9), cache=cache)
        tr1, tr2 = simple_transactions()
        engine.transaction_similarity(tr1, tr2)
        assert len(cache) > 0
